//! Properties of the instrumented traversal: identical results to the
//! plain traversal, and the work counters behave the way the SAH predicts
//! (SAH trees do less per-ray work than median-split trees, which do less
//! than brute force).

use kdtune_geometry::{Ray, Vec3};
use kdtune_kdtree::{build, build_median, Algorithm, BuildParams, TraversalCounters};
use kdtune_scenes::{sibenik, SceneParams};

fn test_rays(n: usize) -> Vec<Ray> {
    (0..n)
        .map(|i| {
            let a = i as f32 * 0.37;
            Ray::new(
                Vec3::new(-15.0, 4.0, 0.0),
                Vec3::new(a.cos().abs() + 0.2, 0.25 * (a * 1.3).sin(), a.sin()).normalized(),
            )
        })
        .collect()
}

#[test]
fn counted_traversal_matches_plain() {
    let mesh = sibenik(&SceneParams::tiny()).frame(0);
    let tree = build(mesh, Algorithm::InPlace, &BuildParams::default());
    let tree = tree.as_eager().unwrap();
    let mut total = TraversalCounters::default();
    for (i, ray) in test_rays(64).iter().enumerate() {
        let plain = tree.intersect(ray, 1e-4, f32::INFINITY);
        let (counted, counters) = tree.intersect_counted(ray, 1e-4, f32::INFINITY);
        assert_eq!(plain, counted, "ray {i}");
        if counted.is_some() {
            assert!(counters.tris_tested > 0);
            assert!(counters.leaves_visited > 0);
        }
        total = total.merge(counters);
    }
    // The work itself is pinned: a traversal change that visits other
    // nodes or tests other triangles fails here even when hits agree.
    assert_eq!(
        total,
        TraversalCounters {
            inner_visited: 1210,
            leaves_visited: 361,
            tris_tested: 714,
        }
    );
}

#[test]
fn sah_tree_does_less_work_than_median_tree() {
    let mesh = sibenik(&SceneParams::tiny()).frame(0);
    let n = mesh.len() as u64;
    let sah = build(mesh.clone(), Algorithm::NodeLevel, &BuildParams::default());
    let sah = sah.as_eager().unwrap();
    let median = build_median(mesh, 64, &BuildParams::default());

    let mut sah_work = TraversalCounters::default();
    let mut med_work = TraversalCounters::default();
    let rays = test_rays(128);
    for ray in &rays {
        sah_work = sah_work.merge(sah.intersect_counted(ray, 1e-4, f32::INFINITY).1);
        med_work = med_work.merge(median.intersect_counted(ray, 1e-4, f32::INFINITY).1);
    }
    let sah_cost = sah_work.weighted_cost(10.0, 17.0);
    let med_cost = med_work.weighted_cost(10.0, 17.0);
    assert!(
        sah_cost < med_cost,
        "SAH {sah_cost:.0} should beat coarse median {med_cost:.0}"
    );
    // And both do far less than brute force would (n tests per ray).
    let brute = 17.0 * (n * rays.len() as u64) as f64;
    assert!(
        sah_cost < brute / 4.0,
        "sah {sah_cost:.0} vs brute {brute:.0}"
    );
}

#[test]
fn tuned_cost_parameters_shift_measured_work() {
    // Higher CI pushes the builder to split more, trading node visits for
    // fewer triangle tests — measurable with the counters.
    let mesh = sibenik(&SceneParams::tiny()).frame(0);
    let shallow = build(
        mesh.clone(),
        Algorithm::InPlace,
        &BuildParams::from_config(3.0, 60.0, 3, 4096),
    );
    let deep = build(
        mesh,
        Algorithm::InPlace,
        &BuildParams::from_config(101.0, 0.0, 3, 4096),
    );
    let (mut sh, mut de) = (TraversalCounters::default(), TraversalCounters::default());
    for ray in test_rays(128) {
        sh = sh.merge(
            shallow
                .as_eager()
                .unwrap()
                .intersect_counted(&ray, 1e-4, f32::INFINITY)
                .1,
        );
        de = de.merge(
            deep.as_eager()
                .unwrap()
                .intersect_counted(&ray, 1e-4, f32::INFINITY)
                .1,
        );
    }
    assert!(de.tris_tested < sh.tris_tested, "{de:?} vs {sh:?}");
    assert!(de.inner_visited > sh.inner_visited, "{de:?} vs {sh:?}");
}
