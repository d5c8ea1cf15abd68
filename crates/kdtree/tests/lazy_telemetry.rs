//! A lazy expansion reports itself: one `kdtree.lazy.expand` span per
//! expanded node (its primitives, subtree nodes and the pool jobs waiting
//! threads ran meanwhile) and the `kdtree.lazy.expansions` counter. Its
//! own test binary, because the telemetry recorder is process-global.

use kdtune_geometry::{Ray, Vec3};
use kdtune_kdtree::{build, Algorithm, BuildParams};
use kdtune_scenes::{sibenik, SceneParams};
use kdtune_telemetry::sinks::RingBufferRecorder;
use kdtune_telemetry::{self as telemetry, RecordKind, Value};
use std::sync::Arc;

#[test]
fn expansion_emits_its_span_and_counter() {
    let mesh = sibenik(&SceneParams::tiny()).frame(0);
    let params = BuildParams {
        r: u32::MAX,
        ..BuildParams::default()
    };
    let tree = build(Arc::clone(&mesh), Algorithm::Lazy, &params);
    let lazy = tree.as_lazy().unwrap();
    let ray = Ray::new(Vec3::new(-15.0, 4.0, 0.0), Vec3::X);

    let ring = Arc::new(RingBufferRecorder::new(65536));
    telemetry::set_recorder(ring.clone());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    pool.install(|| rayon::join(|| lazy.intersect(&ray, 0.0, 1e9), || lazy.expand_all()));
    telemetry::clear_recorder();

    let records = ring.snapshot();
    let spans: Vec<_> = records
        .iter()
        .filter(|r| r.kind == RecordKind::Span && r.name == "kdtree.lazy.expand")
        .collect();
    assert_eq!(spans.len(), 1, "one node, expanded once");
    let field = |key: &str| {
        spans[0]
            .fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("span field {key} missing"))
    };
    assert_eq!(field("prims"), Value::U64(mesh.len() as u64));
    assert_eq!(field("nodes"), Value::U64(lazy.total_node_count() as u64));
    assert!(matches!(field("helped_jobs"), Value::U64(_)));
    let expansions: i64 = records
        .iter()
        .filter(|r| r.kind == RecordKind::Counter && r.name == "kdtree.lazy.expansions")
        .filter_map(|r| r.delta)
        .sum();
    assert_eq!(expansions, 1);
}
