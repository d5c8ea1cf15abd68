//! Packet traversal must be **bit-identical**, lane for lane, to the
//! scalar nearest-hit query — at every width (4/8/16), with the interval
//! frustum on and off, on coherent packets, divergent packets, partially
//! inactive packets, all-miss packets, and every divergence threshold.

use kdtune_geometry::{Ray, RayPacket, Triangle, TriangleMesh, Vec3};
use kdtune_kdtree::{build, Algorithm, BuildParams, PacketCounters, RayQuery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::sync::OnceLock;

/// Deterministic triangle soup with clustered geometry so rays hit often.
fn soup(n: usize, seed: u64) -> Arc<TriangleMesh> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mesh = TriangleMesh::new();
    for _ in 0..n {
        let base = Vec3::new(
            rng.gen_range(-8.0..8.0),
            rng.gen_range(-8.0..8.0),
            rng.gen_range(-8.0..8.0),
        );
        let mut e = || {
            Vec3::new(
                rng.gen_range(-0.9..0.9),
                rng.gen_range(-0.9..0.9),
                rng.gen_range(-0.9..0.9),
            )
        };
        let (e1, e2) = (e(), e());
        mesh.push_triangle(Triangle::new(base, base + e1, base + e2));
    }
    Arc::new(mesh)
}

fn shared_tree() -> &'static kdtune_kdtree::BuiltTree {
    static TREE: OnceLock<kdtune_kdtree::BuiltTree> = OnceLock::new();
    TREE.get_or_init(|| {
        build(
            soup(4_000, 0x9ac4e7),
            Algorithm::InPlace,
            &BuildParams::default(),
        )
    })
}

/// Asserts lanewise bit identity of the packet query against the
/// scalar query, for one packet, one divergence threshold and one
/// frustum mode.
fn assert_packet_matches_scalar<const W: usize>(
    tree: &impl RayQuery,
    p: &RayPacket<W>,
    t_min: f32,
    min_active: u32,
    use_frustum: bool,
) {
    let mut counters = PacketCounters::default();
    let hits = tree.intersect_packet(p, t_min, min_active, use_frustum, &mut counters);
    let t_maxes = p.t_maxes();
    for (l, hit) in hits.iter().enumerate() {
        let bit = 1u32 << l;
        if p.active() & bit == 0 {
            assert!(hit.is_none(), "inactive lane {l} must report None");
            continue;
        }
        let scalar = tree.intersect(p.ray(l), t_min, t_maxes[l]);
        assert_eq!(
            hit.map(|h| (h.prim, h.t.to_bits(), h.u.to_bits(), h.v.to_bits())),
            scalar.map(|h| (h.prim, h.t.to_bits(), h.u.to_bits(), h.v.to_bits())),
            "w={W} lane {l} (min_active {min_active}, frustum {use_frustum}) \
             diverged from scalar nearest-hit"
        );
    }
    assert!(counters.packets >= 1);
    assert!(counters.lane_utilization() >= 0.0 && counters.lane_utilization() <= 1.0);
}

/// Both frustum modes (the frustum must only change speed, never bits).
fn assert_matches_in_both_frustum_modes<const W: usize>(
    tree: &impl RayQuery,
    p: &RayPacket<W>,
    t_min: f32,
    min_active: u32,
) {
    assert_packet_matches_scalar(tree, p, t_min, min_active, false);
    assert_packet_matches_scalar(tree, p, t_min, min_active, true);
}

/// Coherent tile-style packet: one origin, nearby directions.
fn coherent_case<const W: usize>() {
    let tree = shared_tree();
    let eye = Vec3::new(0.0, 0.0, -30.0);
    for i in 0..48 {
        let f = i as f32 / 48.0;
        let rays: [Ray; W] = std::array::from_fn(|l| {
            let dx = (l % 4) as f32 * 0.01;
            let dy = (l / 4) as f32 * 0.01;
            Ray::new(
                eye,
                Vec3::new(f * 0.6 - 0.3 + dx, 0.2 - f * 0.4 + dy, 1.0).normalized(),
            )
        });
        let p = RayPacket::<W>::new(rays, [f32::INFINITY; W]);
        for min_active in 0..=(W as u32) {
            assert_matches_in_both_frustum_modes(tree, &p, 0.0, min_active);
        }
    }
}

#[test]
fn coherent_packet_matches_scalar_for_all_min_active() {
    coherent_case::<4>();
    coherent_case::<8>();
    coherent_case::<16>();
}

/// Divergent packet: unrelated origins and directions per lane, the worst
/// case for the shared loop (frequent `below_first` disagreement bails;
/// the frustum never validates a multi-origin packet but must stay
/// harmless).
fn divergent_case<const W: usize>(seed: u64) {
    let tree = shared_tree();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..120 {
        let rays: [Ray; W] = std::array::from_fn(|l| {
            Ray::new(
                Vec3::new(
                    rng.gen_range(-20.0..20.0),
                    rng.gen_range(-20.0..20.0),
                    rng.gen_range(-20.0..20.0),
                ),
                Vec3::new(
                    rng.gen_range(-1.0f32..1.0),
                    rng.gen_range(-1.0f32..1.0),
                    rng.gen_range(-1.0f32..1.0) + l as f32 * 1e-3,
                ),
            )
        });
        let t_max = [rng.gen_range(1.0f32..200.0); W];
        let p = RayPacket::<W>::new(rays, t_max);
        for min_active in [1, 2, W as u32] {
            assert_matches_in_both_frustum_modes(tree, &p, 0.0, min_active);
        }
    }
}

#[test]
fn divergent_packet_matches_scalar() {
    divergent_case::<4>(0xd1_7e);
    divergent_case::<8>(0xd2_7e);
    divergent_case::<16>(0xd3_7e);
}

/// Partially inactive packets: every mask at W=4, sampled masks (plus
/// the empty and full ones) at the wider widths.
fn inactive_case<const W: usize>(masks: &[u32]) {
    let tree = shared_tree();
    let eye = Vec3::new(3.0, -2.0, -25.0);
    let rays: [Ray; W] = std::array::from_fn(|l| {
        Ray::new(
            eye,
            Vec3::new(0.05 * l as f32 - 0.1, 0.03 * l as f32, 1.0).normalized(),
        )
    });
    for &mask in masks {
        let p = RayPacket::<W>::with_mask(rays, [f32::INFINITY; W], mask);
        assert_eq!(p.active(), mask & RayPacket::<W>::ALL);
        assert_matches_in_both_frustum_modes(tree, &p, 0.0, 2);
    }
}

#[test]
fn partially_inactive_lanes_match_scalar() {
    let all4: Vec<u32> = (0..=RayPacket::<4>::ALL).collect();
    inactive_case::<4>(&all4);
    let mut rng = StdRng::seed_from_u64(0x1a5c);
    let sample = |full: u32, rng: &mut StdRng| {
        let mut m: Vec<u32> = (0..24).map(|_| rng.gen_range(0..=full)).collect();
        m.push(0);
        m.push(full);
        m
    };
    let m8 = sample(RayPacket::<8>::ALL, &mut rng);
    inactive_case::<8>(&m8);
    let m16 = sample(RayPacket::<16>::ALL, &mut rng);
    inactive_case::<16>(&m16);
}

/// All-miss packet: rays pointing away from the scene must report no
/// hits and touch at most the root.
fn all_miss_case<const W: usize>() {
    let tree = shared_tree();
    let rays: [Ray; W] = std::array::from_fn(|l| {
        Ray::new(
            Vec3::new(0.0, 0.0, -50.0),
            Vec3::new(0.01 * l as f32, 0.0, -1.0).normalized(),
        )
    });
    let p = RayPacket::<W>::new(rays, [f32::INFINITY; W]);
    for use_frustum in [false, true] {
        let mut counters = PacketCounters::default();
        let hits = tree.intersect_packet(&p, 0.0, 2, use_frustum, &mut counters);
        assert!(hits.iter().all(|h| h.is_none()));
        assert_eq!(counters.node_steps, 0, "root clip must reject every lane");
        assert_eq!(counters.lane_utilization(), 0.0);
    }
}

#[test]
fn all_miss_packet_reports_nothing() {
    all_miss_case::<4>();
    all_miss_case::<8>();
    all_miss_case::<16>();
}

/// Shadow-style packets: distinct per-lane origins on scene surfaces,
/// directions toward one light and per-lane finite `t_max` — packets
/// without a common origin, where the frustum never validates.
fn shadow_case<const W: usize>(seed: u64) {
    let tree = shared_tree();
    let light = Vec3::new(15.0, 20.0, -10.0);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..60 {
        let mut t_max = [0.0f32; W];
        let rays: [Ray; W] = std::array::from_fn(|l| {
            let point = Vec3::new(
                rng.gen_range(-8.0..8.0),
                rng.gen_range(-8.0..8.0),
                rng.gen_range(-8.0..8.0),
            );
            let to_light = light - point;
            t_max[l] = to_light.length() - 1e-3;
            Ray::new(point, to_light.normalized())
        });
        let p = RayPacket::<W>::new(rays, t_max);
        for min_active in [1, 2] {
            assert_matches_in_both_frustum_modes(tree, &p, 1e-3, min_active);
        }
    }
}

#[test]
fn shadow_style_packet_matches_scalar() {
    shadow_case::<4>(0x5ad0);
    shadow_case::<8>(0x5ad1);
    shadow_case::<16>(0x5ad2);
}

/// Drives one random-lane proptest case at width `W`, taking lane `l`'s
/// inputs from the 16-lane pools.
fn random_case<const W: usize>(
    origins: &[[f32; 3]; 16],
    dirs: &[[f32; 3]; 16],
    t_max16: &[f32; 16],
    mask: u32,
    min_active: u32,
    use_frustum: bool,
) -> Result<(), TestCaseError> {
    let tree = shared_tree();
    let rays: [Ray; W] = std::array::from_fn(|l| {
        Ray::new(
            Vec3::new(origins[l][0], origins[l][1], origins[l][2]),
            Vec3::new(dirs[l][0], dirs[l][1], dirs[l][2]),
        )
    });
    let t_max: [f32; W] = std::array::from_fn(|l| t_max16[l]);
    let p = RayPacket::<W>::with_mask(rays, t_max, mask);
    let mut counters = PacketCounters::default();
    let hits = tree.intersect_packet(&p, 0.0, min_active, use_frustum, &mut counters);
    for (l, hit) in hits.iter().enumerate() {
        let bit = 1u32 << l;
        if p.active() & bit == 0 {
            prop_assert!(hit.is_none());
            continue;
        }
        let scalar = tree.intersect(p.ray(l), 0.0, t_max[l]);
        prop_assert_eq!(
            hit.map(|h| (h.prim, h.t.to_bits(), h.u.to_bits(), h.v.to_bits())),
            scalar.map(|h| (h.prim, h.t.to_bits(), h.u.to_bits(), h.v.to_bits()))
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random packets (random origins, directions, masks, thresholds,
    /// frustum modes) against the scalar path on the shared tree, at
    /// every width — each case shares one 16-lane pool so a failure
    /// shrinks to comparable inputs across widths.
    #[test]
    fn random_packets_match_scalar(
        origins in prop::array::uniform16(prop::array::uniform3(-15.0f32..15.0)),
        dirs in prop::array::uniform16(prop::array::uniform3(-1.0f32..1.0)),
        t_max in prop::array::uniform16(0.5f32..300.0),
        mask in 0u32..=0xFFFF,
        min_active in 0u32..5,
        use_frustum in proptest::bool::ANY,
    ) {
        random_case::<4>(&origins, &dirs, &t_max, mask, min_active, use_frustum)?;
        random_case::<8>(&origins, &dirs, &t_max, mask, min_active, use_frustum)?;
        random_case::<16>(&origins, &dirs, &t_max, mask, min_active, use_frustum)?;
    }
}

/// The packet path must hold for every builder at every width (eager
/// trees take the shared loop; the lazy tree exercises the per-lane
/// default).
fn builder_case<const W: usize>(tree: &kdtune_kdtree::BuiltTree, rng: &mut StdRng) {
    for _ in 0..30 {
        let eye = Vec3::new(
            rng.gen_range(-25.0..25.0),
            rng.gen_range(-25.0..25.0),
            -30.0,
        );
        let rays: [Ray; W] = std::array::from_fn(|l| {
            Ray::new(
                eye,
                Vec3::new(
                    rng.gen_range(-0.4f32..0.4) + 1e-3 * l as f32,
                    rng.gen_range(-0.4f32..0.4),
                    1.0,
                )
                .normalized(),
            )
        });
        let p = RayPacket::<W>::new(rays, [f32::INFINITY; W]);
        assert_matches_in_both_frustum_modes(tree, &p, 0.0, 2);
    }
}

#[test]
fn every_builder_agrees_on_packets() {
    let mesh = soup(1_500, 0xbead);
    let mut rng = StdRng::seed_from_u64(0x77);
    for algo in [
        Algorithm::NodeLevel,
        Algorithm::Nested,
        Algorithm::InPlace,
        Algorithm::Lazy,
    ] {
        let tree = build(Arc::clone(&mesh), algo, &BuildParams::default());
        builder_case::<4>(&tree, &mut rng);
        builder_case::<8>(&tree, &mut rng);
        builder_case::<16>(&tree, &mut rng);
    }
}
