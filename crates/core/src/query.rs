//! Point-query work on a tuned tree: the eager tree a batch runs on and
//! the k-NN + radius-gather batch itself. The render service's query
//! sessions and the query benchmark both measure exactly this.

use kdtune_geometry::{TriangleMesh, Vec3};
use kdtune_kdtree::{build, Algorithm, BuildParams, BuiltTree, KdTree, Neighbor, PrimStamps};
use std::sync::Arc;

/// Builds the eager form of a tree for query work: lazy builds are
/// force-expanded, since point queries (unlike rays) visit leaves in an
/// unbounded pattern and the expansion cost is part of what `R` tunes.
pub fn build_eager(mesh: Arc<TriangleMesh>, algorithm: Algorithm, params: &BuildParams) -> KdTree {
    match build(mesh, algorithm, params) {
        BuiltTree::Eager(tree) => tree,
        BuiltTree::Lazy(lazy) => lazy.to_eager(),
    }
}

/// Aggregate results of one k-NN + radius-gather batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryBatchStats {
    /// Points queried.
    pub points: usize,
    /// Total neighbors returned across every k-NN query.
    pub knn_results: u64,
    /// Total prims gathered across every radius query.
    pub radius_results: u64,
    /// Mean squared distance to each query's farthest k-NN neighbor —
    /// a cheap content checksum clients can compare across configs.
    pub mean_knn_far_d2: f64,
}

/// Runs one batch of point queries against `tree`, reusing result
/// buffers and one visit-stamp scratch so the measurement sees the
/// kernels' zero-allocation path.
pub fn run_query_batch(tree: &KdTree, points: &[Vec3], k: usize, radius: f32) -> QueryBatchStats {
    let mut knn_buf: Vec<Neighbor> = Vec::with_capacity(k);
    let mut radius_buf: Vec<Neighbor> = Vec::new();
    let mut stamps = PrimStamps::new();
    let mut stats = QueryBatchStats {
        points: points.len(),
        ..QueryBatchStats::default()
    };
    let mut far_sum = 0.0f64;
    for &p in points {
        tree.knn_into(p, k, &mut knn_buf, &mut stamps);
        stats.knn_results += knn_buf.len() as u64;
        if let Some(last) = knn_buf.last() {
            far_sum += last.d2 as f64;
        }
        tree.radius_gather_into(p, radius, &mut radius_buf, &mut stamps);
        stats.radius_results += radius_buf.len() as u64;
    }
    if !points.is_empty() {
        stats.mean_knn_far_d2 = far_sum / points.len() as f64;
    }
    stats
}
