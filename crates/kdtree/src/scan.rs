//! Parallel prefix (scan) primitives.
//!
//! Choi et al. describe the nested and in-place algorithms as "essentially
//! a sequence of parallel prefix operations": count per chunk, scan the
//! counts into offsets, then write each chunk's output at its offset. The
//! helpers here implement exactly that pattern for the builders' stable
//! partition of a node's primitive ids and per-axis event lists.
//!
//! All fan-out is built on `rayon::join` (the one primitive guaranteed to
//! fork real tasks) via [`par_map`], rather than on parallel-iterator
//! combinators — so the count and scatter passes genuinely overlap, and
//! results stay element-for-element deterministic because the halves are
//! recombined in order.

/// Join-based ordered parallel map: splits `items` in halves down to
/// roughly `tasks` leaf tasks, maps each leaf sequentially, and
/// concatenates the results in input order. With `tasks <= 1` this is an
/// ordinary sequential map.
///
/// Public because the renderer fans its tiles out through the same
/// primitive: `rayon::join` is the one operation the thread pool
/// guarantees to fork, so build and render share one parallel substrate.
pub fn par_map<T, O, F>(mut items: Vec<T>, tasks: usize, f: &F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    if tasks <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let right = items.split_off(items.len() / 2);
    let (mut left, right) = rayon::join(
        || par_map(items, tasks / 2, f),
        || par_map(right, tasks - tasks / 2, f),
    );
    left.extend(right);
    left
}

/// Exclusive prefix sum over `(left, right)` count pairs in one pass:
/// returns `(offsets, (left_total, right_total))` with
/// `offsets[i] = (sum of lefts, sum of rights) over pairs[..i]`. Saves the
/// classification scan from materializing two copied count vectors.
pub fn exclusive_scan_pairs(pairs: &[(usize, usize)]) -> (Vec<(usize, usize)>, (usize, usize)) {
    let mut offsets = Vec::with_capacity(pairs.len());
    let (mut l_acc, mut r_acc) = (0usize, 0usize);
    for &(l, r) in pairs {
        offsets.push((l_acc, r_acc));
        l_acc += l;
        r_acc += r;
    }
    (offsets, (l_acc, r_acc))
}

/// Chunk size of the fork-join phases.
pub(crate) const SCAN_CHUNK: usize = 2048;

/// Items per task below which the partition passes stay on the calling
/// thread. Partitioning is a cheap O(n) pass, so forking only amortizes
/// the OS-thread fork/join cost once each task owns a very large slice;
/// the count→scan→scatter structure (and its output) is the same either
/// way.
const SCAN_PAR_GRAIN: usize = 1 << 17;

/// Stable partition of `items` by `side`, which sends each item left,
/// right or both ways. `items` is `N` consecutive segments (segment `k`
/// ends at `ends[k]`, the last at `items.len()`), and each segment's items
/// stay together and in order on both sides. The left side is compacted
/// into `items` and `ends`; the right side replaces the contents of
/// `right`, and its segment ends are returned. `side` is called once per
/// item, in order.
///
/// No branch depends on the side flags: every item is stored at both
/// sides' cursors, and each cursor advances by its flag. A store after
/// the last right item lands one past it, so `right` first grows to
/// `right_cap + 1` items (only past its current length; a recycled
/// buffer's stale items are overwritten or cut off).
///
/// # Panics
/// When more than `right_cap` items go right.
pub fn partition_in_place<T: Copy + Default, const N: usize>(
    items: &mut Vec<T>,
    ends: &mut [usize; N],
    right: &mut Vec<T>,
    right_cap: usize,
    mut side: impl FnMut(T) -> (bool, bool),
) -> [usize; N] {
    if right.len() <= right_cap {
        right.resize(right_cap + 1, T::default());
    }
    let mut right_ends = [0; N];
    let (mut kept, mut taken, mut start) = (0, 0, 0);
    for (end, right_end) in ends.iter_mut().zip(&mut right_ends) {
        for i in start..*end {
            let x = items[i];
            let (l, r) = side(x);
            // `kept <= i`, so the left store is always in bounds.
            items[kept] = x;
            right[taken] = x;
            kept += usize::from(l);
            taken += usize::from(r);
        }
        start = *end;
        *end = kept;
        *right_end = taken;
    }
    items.truncate(kept);
    right.truncate(taken);
    right_ends
}

/// Parallel [`partition_in_place`] via count → scan → scatter, into new
/// buffers:
///
/// 1. each chunk (never straddling a segment) counts its left/right
///    members in parallel,
/// 2. an exclusive scan over the per-chunk counts yields write offsets,
///    and the segment ends of both sides,
/// 3. each chunk writes its members at its offsets in parallel.
///
/// The output is element-for-element identical to the sequential
/// partition (chunk order is preserved). The two sides replace the
/// contents of `left` and `right`; their segment ends are returned.
pub fn par_partition<T, F, const N: usize>(
    items: &[T],
    ends: [usize; N],
    side: F,
    left: &mut Vec<T>,
    right: &mut Vec<T>,
) -> ([usize; N], [usize; N])
where
    T: Copy + Default + Send + Sync,
    F: Fn(T) -> (bool, bool) + Sync,
{
    let tasks = rayon::current_num_threads()
        .max(1)
        .min(items.len() / SCAN_PAR_GRAIN + 1);
    // Chunk each segment on its own; `seg_chunks[k]` counts the chunks of
    // segments 0..=k.
    let mut chunks: Vec<&[T]> = Vec::with_capacity(items.len() / SCAN_CHUNK + N);
    let mut seg_chunks = [0; N];
    let mut start = 0;
    for (end, seg_chunk) in ends.into_iter().zip(&mut seg_chunks) {
        chunks.extend(items[start..end].chunks(SCAN_CHUNK));
        *seg_chunk = chunks.len();
        start = end;
    }
    // Pass 1: per-chunk counts, caching each item's side flags so the
    // scatter pass doesn't re-evaluate `side`.
    let counted: Vec<((usize, usize), Vec<u8>)> = par_map(chunks.clone(), tasks, &|chunk| {
        let mut flags = Vec::with_capacity(chunk.len());
        let mut l = 0;
        let mut r = 0;
        for &x in chunk {
            let (sl, sr) = side(x);
            flags.push(sl as u8 | ((sr as u8) << 1));
            l += sl as usize;
            r += sr as usize;
        }
        ((l, r), flags)
    });
    let (counts, chunk_flags): (Vec<(usize, usize)>, Vec<Vec<u8>>) = counted.into_iter().unzip();
    // Pass 2: one scan over the (l, r) pairs, no intermediate copies. A
    // segment's outputs end where the next segment's first chunk starts.
    let (offsets, (l_total, r_total)) = exclusive_scan_pairs(&counts);
    let seg_ends = seg_chunks.map(|c| offsets.get(c).copied().unwrap_or((l_total, r_total)));
    // Pass 3: parallel scatter into preallocated outputs. Each chunk owns
    // a disjoint slice of the output, handed out by zipping the output
    // buffers' own chunk decomposition with the input chunks.
    left.resize(l_total, T::default());
    right.resize(r_total, T::default());
    {
        // Split the output buffers into per-chunk windows.
        let mut l_windows: Vec<&mut [T]> = Vec::with_capacity(counts.len());
        let mut r_windows: Vec<&mut [T]> = Vec::with_capacity(counts.len());
        let mut l_rest: &mut [T] = left;
        let mut r_rest: &mut [T] = right;
        for (k, (lc, rc)) in counts.iter().enumerate() {
            debug_assert_eq!(
                offsets[k].0 + lc,
                offsets.get(k + 1).map_or(l_total, |o| o.0)
            );
            debug_assert_eq!(
                offsets[k].1 + rc,
                offsets.get(k + 1).map_or(r_total, |o| o.1)
            );
            let (lw, lr) = l_rest.split_at_mut(*lc);
            let (rw, rr) = r_rest.split_at_mut(*rc);
            l_windows.push(lw);
            r_windows.push(rw);
            l_rest = lr;
            r_rest = rr;
        }
        // One scatter task: (input chunk, its cached side flags, and the
        // disjoint left/right output windows it owns).
        type ScatterTask<'a, T> = (&'a [T], Vec<u8>, &'a mut [T], &'a mut [T]);
        let work: Vec<ScatterTask<'_, T>> = chunks
            .into_iter()
            .zip(chunk_flags)
            .zip(l_windows)
            .zip(r_windows)
            .map(|(((c, f), lw), rw)| (c, f, lw, rw))
            .collect();
        par_map(work, tasks, &|(chunk, flags, lw, rw)| {
            let mut li = 0;
            let mut ri = 0;
            for (&x, &f) in chunk.iter().zip(&flags) {
                if f & 1 != 0 {
                    lw[li] = x;
                    li += 1;
                }
                if f & 2 != 0 {
                    rw[ri] = x;
                    ri += 1;
                }
            }
            debug_assert_eq!(li, lw.len());
            debug_assert_eq!(ri, rw.len());
        });
    }
    (seg_ends.map(|e| e.0), seg_ends.map(|e| e.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{classify, sides};
    use kdtune_geometry::{Aabb, Axis};

    /// Exclusive prefix sum: `(offsets, total)` with
    /// `offsets[i] = sum(values[..i])`.
    fn exclusive_scan(values: &[usize]) -> (Vec<usize>, usize) {
        let mut offsets = Vec::with_capacity(values.len());
        let mut acc = 0usize;
        for &v in values {
            offsets.push(acc);
            acc += v;
        }
        (offsets, acc)
    }

    fn par_classify_scan(
        bounds: &[Aabb],
        idx: &[u32],
        axis: Axis,
        pos: f32,
    ) -> (Vec<u32>, Vec<u32>) {
        let (mut left, mut right) = (Vec::new(), Vec::new());
        let side = |i: u32| sides(&bounds[i as usize], axis, pos);
        par_partition(idx, [idx.len()], side, &mut left, &mut right);
        (left, right)
    }
    use kdtune_geometry::Vec3;
    use proptest::prelude::*;

    /// The regression this PR exists for: the breadth-first fan-out must
    /// actually run on multiple OS threads when the pool is wide, and
    /// stay on the calling thread when it is not.
    #[test]
    fn par_map_fans_out_onto_real_threads() {
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        use std::thread::ThreadId;
        use std::time::Duration;

        let wide = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        // Two leaves, one join: the shim publishes the right leaf (item
        // 1) to the pool and runs the left (item 0) inline. The inline
        // leaf blocks until the published leaf reports which thread it
        // started on, so the two leaves *must* overlap on distinct
        // threads — no worker ever starting it is a timed-out failure,
        // not a silent pass, and no outcome depends on sleep timing.
        let started: (Mutex<Option<ThreadId>>, Condvar) = (Mutex::new(None), Condvar::new());
        let ids: Vec<ThreadId> = wide.install(|| {
            par_map(vec![0usize, 1], 2, &|item| {
                let me = std::thread::current().id();
                if item == 1 {
                    *started.0.lock().unwrap() = Some(me);
                    started.1.notify_all();
                } else {
                    let (slot, timeout) = started
                        .1
                        .wait_timeout_while(
                            started.0.lock().unwrap(),
                            Duration::from_secs(30),
                            |s| s.is_none(),
                        )
                        .unwrap();
                    assert!(
                        !timeout.timed_out(),
                        "no pool worker ever picked up the published leaf"
                    );
                    assert_ne!(
                        slot.expect("signalled"),
                        me,
                        "the published leaf ran on the submitting thread"
                    );
                }
                me
            })
        });
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 2);

        let narrow = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let items: Vec<usize> = (0..64).collect();
        let ids: Vec<ThreadId> =
            narrow.install(|| par_map(items, 4, &|_| std::thread::current().id()));
        assert!(
            ids.iter().collect::<HashSet<_>>().len() == 1,
            "1-thread pool must run everything on the calling thread"
        );
    }

    /// Order preservation: results line up with inputs whatever the split.
    #[test]
    fn par_map_preserves_order() {
        for tasks in [1, 2, 3, 7, 64] {
            let out = par_map((0..100).collect::<Vec<i32>>(), tasks, &|x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
        }
    }

    #[test]
    fn exclusive_scan_basics() {
        assert_eq!(exclusive_scan(&[]), (vec![], 0));
        assert_eq!(exclusive_scan(&[5]), (vec![0], 5));
        assert_eq!(exclusive_scan(&[1, 2, 3]), (vec![0, 1, 3], 6));
        assert_eq!(exclusive_scan(&[0, 0, 4, 0]), (vec![0, 0, 0, 4], 4));
    }

    #[test]
    fn exclusive_scan_pairs_matches_componentwise_scans() {
        assert_eq!(exclusive_scan_pairs(&[]), (vec![], (0, 0)));
        let pairs = [(1, 4), (0, 2), (3, 0), (2, 2)];
        let (offsets, totals) = exclusive_scan_pairs(&pairs);
        let (l, lt) = exclusive_scan(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let (r, rt) = exclusive_scan(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        assert_eq!(totals, (lt, rt));
        assert_eq!(offsets, l.into_iter().zip(r).collect::<Vec<_>>());
    }

    fn slab(lo: f32, hi: f32) -> Aabb {
        Aabb::new(Vec3::new(lo, 0.0, 0.0), Vec3::new(hi, 1.0, 1.0))
    }

    #[test]
    fn matches_sequential_on_small_input() {
        let bounds = vec![
            slab(0.0, 0.3),
            slab(0.2, 0.8),
            slab(0.6, 1.0),
            slab(0.5, 0.5),
        ];
        let idx: Vec<u32> = (0..4).collect();
        let seq = classify(&bounds, &idx, Axis::X, 0.5);
        let par = par_classify_scan(&bounds, &idx, Axis::X, 0.5);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input() {
        let (l, r) = par_classify_scan(&[], &[], Axis::X, 0.5);
        assert!(l.is_empty() && r.is_empty());
    }

    /// Left only, right only, or both ways (a straddler).
    const SIDES: [(bool, bool); 3] = [(true, false), (false, true), (true, true)];

    /// [`partition_in_place`] of the items `0..n` in segments ending at
    /// `ends` (item `i` goes `SIDES[codes[i]]`), with the tightest
    /// `right_cap` and a recycled right buffer of `stale` old items,
    /// against a reference that filters each segment for each side.
    fn check_partition(codes: &[u8], ends: [usize; 3], stale: usize) {
        let side = |x: u32| SIDES[usize::from(codes[x as usize])];
        let mut expected = [(Vec::new(), [0; 3]), (Vec::new(), [0; 3])];
        let mut start = 0;
        for (k, &end) in ends.iter().enumerate() {
            for x in start as u32..end as u32 {
                let (l, r) = side(x);
                for (keep, (out, _)) in [l, r].into_iter().zip(&mut expected) {
                    if keep {
                        out.push(x);
                    }
                }
            }
            for (out, out_ends) in &mut expected {
                out_ends[k] = out.len();
            }
            start = end;
        }
        let right_cap = expected[1].0.len();
        let mut left: Vec<u32> = (0..codes.len() as u32).collect();
        let mut left_ends = ends;
        let mut right = vec![u32::MAX; stale];
        let right_ends = partition_in_place(&mut left, &mut left_ends, &mut right, right_cap, side);
        assert_eq!(
            [(left, left_ends), (right, right_ends)],
            expected,
            "{codes:?} {ends:?}"
        );
    }

    #[test]
    fn branch_free_partition_matches_reference_at_the_edges() {
        let n = 40;
        let ends = [10, 25, n];
        check_partition(&[0; 40], ends, 0); // all left
        check_partition(&[1; 40], ends, 0); // all right
        check_partition(&[2; 40], ends, 3); // all straddling
                                            // The right side fills `right_cap` exactly and a left-only item
                                            // comes last: its store lands on the slack slot.
        let mut codes = [1u8; 40];
        codes[39] = 0;
        check_partition(&codes, ends, 0);
        check_partition(&codes, ends, 64);
        check_partition(&[], [0; 3], 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random sides, segments and recycled buffers.
        #[test]
        fn branch_free_partition_matches_reference(
            codes in proptest::collection::vec(0u8..3, 0..300),
            a in 0usize..300,
            b in 0usize..300,
            stale in 0usize..400,
        ) {
            let n = codes.len();
            let (a, b) = (a.min(n), b.min(n));
            check_partition(&codes, [a.min(b), a.max(b), n], stale);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Element-for-element identical to the sequential classify, even
        /// across multiple chunks.
        #[test]
        fn matches_sequential_classify(
            n in 1usize..6000,
            seed in 0u64..1000,
            pos in 0.0f32..1.0,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let bounds: Vec<Aabb> = (0..n)
                .map(|_| {
                    let a: f32 = rng.gen();
                    let b: f32 = rng.gen();
                    slab(a.min(b), a.max(b))
                })
                .collect();
            let idx: Vec<u32> = (0..n as u32).collect();
            let seq = classify(&bounds, &idx, Axis::X, pos);
            let par = par_classify_scan(&bounds, &idx, Axis::X, pos);
            prop_assert_eq!(seq, par);
        }
    }
}
