//! A breadth-first build reports each level: one `kdtree.build.level`
//! event per level, with the frontier's node and primitive counts and the
//! microseconds of the level's decision pass and commit pass. Its own
//! test binary, because the telemetry recorder is process-global.

use kdtune_kdtree::{build, Algorithm, BuildParams};
use kdtune_scenes::{fairy_forest, SceneParams};
use kdtune_telemetry::sinks::RingBufferRecorder;
use kdtune_telemetry::{self as telemetry, RecordKind, Value};
use std::sync::Arc;

#[test]
fn every_level_event_carries_counts_and_pass_times() {
    let mesh = fairy_forest(&SceneParams::tiny()).frame(0);
    let ring = Arc::new(RingBufferRecorder::new(65536));
    telemetry::set_recorder(ring.clone());
    let tree = build(
        Arc::clone(&mesh),
        Algorithm::InPlace,
        &BuildParams::default(),
    );
    telemetry::clear_recorder();

    let records = ring.snapshot();
    let levels: Vec<_> = records
        .iter()
        .filter(|r| r.kind == RecordKind::Event && r.name == "kdtree.build.level")
        .collect();
    let depth = tree.as_eager().unwrap().traversal_depth_bound() as usize;
    assert_eq!(levels.len(), depth + 1, "one event per level");
    let counted: i64 = records
        .iter()
        .filter(|r| r.kind == RecordKind::Counter && r.name == "kdtree.build.levels")
        .filter_map(|r| r.delta)
        .sum();
    assert_eq!(counted, levels.len() as i64);

    let mut nodes = 0;
    for (i, event) in levels.iter().enumerate() {
        let field = |key: &str| {
            event
                .fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("level {i}: field {key} missing"))
        };
        assert_eq!(field("level"), Value::U64(i as u64));
        let Value::U64(n) = field("nodes") else {
            panic!("level {i}: nodes is not a count");
        };
        nodes += n;
        if i == 0 {
            assert_eq!(n, 1);
            assert_eq!(field("prims"), Value::U64(mesh.len() as u64));
        }
        for pass in ["decide_us", "commit_us"] {
            match field(pass) {
                Value::F64(us) => assert!(us.is_finite() && us >= 0.0, "level {i}: {pass} {us}"),
                other => panic!("level {i}: {pass} is {other:?}"),
            }
        }
    }
    assert_eq!(
        nodes as usize,
        tree.node_count(),
        "every node on some level"
    );
}
