//! Pinned tree fingerprints: every builder's tree, hashed, must equal a
//! constant recorded from a known-good build.
//!
//! The other build suites compare one builder with another, so none of
//! them can fail when all the builders change together. These constants
//! fail on any change to a plane, a node's layout or a leaf's primitive
//! order (which decides equal-`t` hits), whatever the pool width.
//!
//! The hash is FNV-1a 64 over `kdtree::io::encode` (mesh, nodes and leaf
//! lists); the Lazy tree is hashed after `to_eager()`. When a change is
//! *meant* to alter the trees, the failure message prints the full table
//! of new constants.

use kdtune_geometry::{Triangle, TriangleMesh, Vec3};
use kdtune_kdtree::{build, io, Algorithm, BuildParams};
use kdtune_scenes::SceneParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The service's scene frames at `tiny` scale.
const SCENE_FRAMES: [(&str, usize); 7] = [
    ("bunny", 0),
    ("sponza", 0),
    ("sibenik", 0),
    ("toasters", 0),
    ("toasters", 123),
    ("wood_doll", 14),
    ("fairy_forest", 10),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `C_base`, the two corners of the tuner's `(CI, CB, S, R)` space, and
/// the point the lazy tuner converges to on kdbench's anim_tune: a
/// whole-frame deferral, expanded by a fork tree of depth 4 on two
/// threads.
fn param_sets() -> [(&'static str, BuildParams); 4] {
    [
        ("base", BuildParams::default()),
        ("corner_lo", BuildParams::from_config(3.0, 0.0, 8, 16)),
        ("corner_hi", BuildParams::from_config(101.0, 60.0, 1, 8192)),
        ("lazy_tuned", BuildParams::from_config(72.0, 12.0, 6, 4096)),
    ]
}

/// Random soup, as `parallel_build.rs` uses: large enough to reach the
/// in-node count→scan→scatter partition (≥ 4 096 primitives) and the
/// per-axis sweep fork (≥ 16 384).
fn big_soup(n: usize) -> TriangleMesh {
    let mut rng = StdRng::seed_from_u64(0x50_0f);
    let mut mesh = TriangleMesh::new();
    for _ in 0..n {
        let base = Vec3::new(
            rng.gen_range(-20.0..20.0),
            rng.gen_range(-20.0..20.0),
            rng.gen_range(-20.0..20.0),
        );
        let e = |rng: &mut StdRng| {
            Vec3::new(
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
            )
        };
        let (e1, e2) = (e(&mut rng), e(&mut rng));
        mesh.push_triangle(Triangle::new(base, base + e1, base + e2));
    }
    mesh
}

/// Two clusters whose bounds meet at x = −0.0 (left) and x = +0.0
/// (right), plus a triangle lying flat in each of the two zero planes:
/// the sweep must treat −0.0 and +0.0 as one candidate plane.
fn signed_zero_mesh() -> TriangleMesh {
    let mut mesh = TriangleMesh::new();
    for k in 0..6 {
        let y = k as f32;
        let (z0, z1) = (0.25 * k as f32, 0.25 * k as f32 + 1.0);
        mesh.push_triangle(Triangle::new(
            Vec3::new(-1.0 - 0.1 * y, y, z0),
            Vec3::new(-0.0, y + 0.5, z0),
            Vec3::new(-0.5, y, z1),
        ));
        mesh.push_triangle(Triangle::new(
            Vec3::new(0.0, y, z0),
            Vec3::new(1.0 + 0.1 * y, y + 0.5, z0),
            Vec3::new(0.5, y, z1),
        ));
    }
    mesh.push_triangle(Triangle::new(
        Vec3::new(-0.0, 1.0, 0.0),
        Vec3::new(-0.0, 2.0, 0.0),
        Vec3::new(-0.0, 1.0, 1.0),
    ));
    mesh.push_triangle(Triangle::new(
        Vec3::new(0.0, 3.0, 0.0),
        Vec3::new(0.0, 4.0, 0.0),
        Vec3::new(0.0, 3.0, 1.0),
    ));
    mesh
}

/// A soup with NaN (both signs) and ±inf written into some vertex
/// components, as broken exports produce.
fn non_finite_mesh() -> TriangleMesh {
    let base = big_soup(300);
    let specials = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let mut mesh = TriangleMesh::new();
    for i in 0..base.len() {
        let mut t = base.triangle(i);
        if i % 23 == 5 {
            let k = i / 23;
            let v = match k % 3 {
                0 => &mut t.a,
                1 => &mut t.b,
                _ => &mut t.c,
            };
            v[kdtune_geometry::Axis::ALL[(k / 3) % 3]] = specials[k % specials.len()];
        }
        mesh.push_triangle(t);
    }
    mesh
}

fn inputs() -> Vec<(String, Arc<TriangleMesh>)> {
    let tiny = SceneParams::tiny();
    let mut out: Vec<(String, Arc<TriangleMesh>)> = SCENE_FRAMES
        .iter()
        .map(|&(name, frame)| {
            let scene = kdtune_scenes::by_name(name, &tiny).expect("known scene");
            let mesh = scene.frame(frame % scene.frame_count());
            (format!("{name}_f{frame}"), mesh)
        })
        .collect();
    out.push(("soup20k".into(), Arc::new(big_soup(20_000))));
    out.push(("signed_zero".into(), Arc::new(signed_zero_mesh())));
    out.push(("non_finite".into(), Arc::new(non_finite_mesh())));
    out
}

fn fingerprint(mesh: &Arc<TriangleMesh>, algo: Algorithm, params: &BuildParams) -> u64 {
    let tree = build(Arc::clone(mesh), algo, params);
    let bytes = match tree.as_lazy() {
        Some(lazy) => io::encode(&lazy.to_eager()),
        None => io::encode(tree.as_eager().expect("eager")),
    };
    fnv1a64(&bytes)
}

/// `(input, parameters, algorithm, FNV-1a 64 of the encoded tree)`.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str, &str, u64)] = &[
    ("bunny_f0", "base", "node_level", 0x8263713c2c594742),
    ("bunny_f0", "base", "nested", 0x8263713c2c594742),
    ("bunny_f0", "base", "in_place", 0x8263713c2c594742),
    ("bunny_f0", "base", "lazy", 0x8263713c2c594742),
    ("bunny_f0", "corner_lo", "node_level", 0xd4465c60d68ffcbf),
    ("bunny_f0", "corner_lo", "nested", 0xd4465c60d68ffcbf),
    ("bunny_f0", "corner_lo", "in_place", 0xd4465c60d68ffcbf),
    ("bunny_f0", "corner_lo", "lazy", 0xd4465c60d68ffcbf),
    ("bunny_f0", "corner_hi", "node_level", 0x6a4cefad52dba0b9),
    ("bunny_f0", "corner_hi", "nested", 0x6a4cefad52dba0b9),
    ("bunny_f0", "corner_hi", "in_place", 0x6a4cefad52dba0b9),
    ("bunny_f0", "corner_hi", "lazy", 0x6a4cefad52dba0b9),
    ("bunny_f0", "lazy_tuned", "node_level", 0xc05eea7034339094),
    ("bunny_f0", "lazy_tuned", "nested", 0xc05eea7034339094),
    ("bunny_f0", "lazy_tuned", "in_place", 0xc05eea7034339094),
    ("bunny_f0", "lazy_tuned", "lazy", 0xc05eea7034339094),
    ("sponza_f0", "base", "node_level", 0xa6ef1ec1eeb089e5),
    ("sponza_f0", "base", "nested", 0xa6ef1ec1eeb089e5),
    ("sponza_f0", "base", "in_place", 0xa6ef1ec1eeb089e5),
    ("sponza_f0", "base", "lazy", 0xa6ef1ec1eeb089e5),
    ("sponza_f0", "corner_lo", "node_level", 0x316e846b785cb752),
    ("sponza_f0", "corner_lo", "nested", 0x316e846b785cb752),
    ("sponza_f0", "corner_lo", "in_place", 0x316e846b785cb752),
    ("sponza_f0", "corner_lo", "lazy", 0x316e846b785cb752),
    ("sponza_f0", "corner_hi", "node_level", 0xfd48a4a0c5e47289),
    ("sponza_f0", "corner_hi", "nested", 0xfd48a4a0c5e47289),
    ("sponza_f0", "corner_hi", "in_place", 0xfd48a4a0c5e47289),
    ("sponza_f0", "corner_hi", "lazy", 0xfd48a4a0c5e47289),
    ("sponza_f0", "lazy_tuned", "node_level", 0x25d9824afb4dde26),
    ("sponza_f0", "lazy_tuned", "nested", 0x25d9824afb4dde26),
    ("sponza_f0", "lazy_tuned", "in_place", 0x25d9824afb4dde26),
    ("sponza_f0", "lazy_tuned", "lazy", 0x25d9824afb4dde26),
    ("sibenik_f0", "base", "node_level", 0x1c17c389c777b899),
    ("sibenik_f0", "base", "nested", 0x1c17c389c777b899),
    ("sibenik_f0", "base", "in_place", 0x1c17c389c777b899),
    ("sibenik_f0", "base", "lazy", 0x1c17c389c777b899),
    ("sibenik_f0", "corner_lo", "node_level", 0x158d8ccd0438ec60),
    ("sibenik_f0", "corner_lo", "nested", 0x158d8ccd0438ec60),
    ("sibenik_f0", "corner_lo", "in_place", 0x158d8ccd0438ec60),
    ("sibenik_f0", "corner_lo", "lazy", 0x158d8ccd0438ec60),
    ("sibenik_f0", "corner_hi", "node_level", 0x6460fcafc0d4f577),
    ("sibenik_f0", "corner_hi", "nested", 0x6460fcafc0d4f577),
    ("sibenik_f0", "corner_hi", "in_place", 0x6460fcafc0d4f577),
    ("sibenik_f0", "corner_hi", "lazy", 0x6460fcafc0d4f577),
    ("sibenik_f0", "lazy_tuned", "node_level", 0xadf79650f2b324f5),
    ("sibenik_f0", "lazy_tuned", "nested", 0xadf79650f2b324f5),
    ("sibenik_f0", "lazy_tuned", "in_place", 0xadf79650f2b324f5),
    ("sibenik_f0", "lazy_tuned", "lazy", 0xadf79650f2b324f5),
    ("toasters_f0", "base", "node_level", 0xdcebb070afb4e65f),
    ("toasters_f0", "base", "nested", 0xdcebb070afb4e65f),
    ("toasters_f0", "base", "in_place", 0xdcebb070afb4e65f),
    ("toasters_f0", "base", "lazy", 0xdcebb070afb4e65f),
    ("toasters_f0", "corner_lo", "node_level", 0xd0045568f7d973da),
    ("toasters_f0", "corner_lo", "nested", 0xd0045568f7d973da),
    ("toasters_f0", "corner_lo", "in_place", 0xd0045568f7d973da),
    ("toasters_f0", "corner_lo", "lazy", 0xd0045568f7d973da),
    ("toasters_f0", "corner_hi", "node_level", 0xd631ff0b080c3f65),
    ("toasters_f0", "corner_hi", "nested", 0xd631ff0b080c3f65),
    ("toasters_f0", "corner_hi", "in_place", 0xd631ff0b080c3f65),
    ("toasters_f0", "corner_hi", "lazy", 0xd631ff0b080c3f65),
    ("toasters_f0", "lazy_tuned", "node_level", 0x5cc4c4d0be401772),
    ("toasters_f0", "lazy_tuned", "nested", 0x5cc4c4d0be401772),
    ("toasters_f0", "lazy_tuned", "in_place", 0x5cc4c4d0be401772),
    ("toasters_f0", "lazy_tuned", "lazy", 0x5cc4c4d0be401772),
    ("toasters_f123", "base", "node_level", 0x55a692a4dbfd9617),
    ("toasters_f123", "base", "nested", 0x55a692a4dbfd9617),
    ("toasters_f123", "base", "in_place", 0x55a692a4dbfd9617),
    ("toasters_f123", "base", "lazy", 0x55a692a4dbfd9617),
    ("toasters_f123", "corner_lo", "node_level", 0x46fce78c502c2bd8),
    ("toasters_f123", "corner_lo", "nested", 0x46fce78c502c2bd8),
    ("toasters_f123", "corner_lo", "in_place", 0x46fce78c502c2bd8),
    ("toasters_f123", "corner_lo", "lazy", 0x46fce78c502c2bd8),
    ("toasters_f123", "corner_hi", "node_level", 0x7ca9708f53eb9d68),
    ("toasters_f123", "corner_hi", "nested", 0x7ca9708f53eb9d68),
    ("toasters_f123", "corner_hi", "in_place", 0x7ca9708f53eb9d68),
    ("toasters_f123", "corner_hi", "lazy", 0x7ca9708f53eb9d68),
    ("toasters_f123", "lazy_tuned", "node_level", 0xddd1b04b93881ee1),
    ("toasters_f123", "lazy_tuned", "nested", 0xddd1b04b93881ee1),
    ("toasters_f123", "lazy_tuned", "in_place", 0xddd1b04b93881ee1),
    ("toasters_f123", "lazy_tuned", "lazy", 0xddd1b04b93881ee1),
    ("wood_doll_f14", "base", "node_level", 0x601e494751b68cef),
    ("wood_doll_f14", "base", "nested", 0x601e494751b68cef),
    ("wood_doll_f14", "base", "in_place", 0x601e494751b68cef),
    ("wood_doll_f14", "base", "lazy", 0x601e494751b68cef),
    ("wood_doll_f14", "corner_lo", "node_level", 0xd952c7cead73bba1),
    ("wood_doll_f14", "corner_lo", "nested", 0xd952c7cead73bba1),
    ("wood_doll_f14", "corner_lo", "in_place", 0xd952c7cead73bba1),
    ("wood_doll_f14", "corner_lo", "lazy", 0xd952c7cead73bba1),
    ("wood_doll_f14", "corner_hi", "node_level", 0xe6ec0e143bd27f47),
    ("wood_doll_f14", "corner_hi", "nested", 0xe6ec0e143bd27f47),
    ("wood_doll_f14", "corner_hi", "in_place", 0xe6ec0e143bd27f47),
    ("wood_doll_f14", "corner_hi", "lazy", 0xe6ec0e143bd27f47),
    ("wood_doll_f14", "lazy_tuned", "node_level", 0x128297f8541d4f98),
    ("wood_doll_f14", "lazy_tuned", "nested", 0x128297f8541d4f98),
    ("wood_doll_f14", "lazy_tuned", "in_place", 0x128297f8541d4f98),
    ("wood_doll_f14", "lazy_tuned", "lazy", 0x128297f8541d4f98),
    ("fairy_forest_f10", "base", "node_level", 0xdb1d2d3b87d1231e),
    ("fairy_forest_f10", "base", "nested", 0xdb1d2d3b87d1231e),
    ("fairy_forest_f10", "base", "in_place", 0xdb1d2d3b87d1231e),
    ("fairy_forest_f10", "base", "lazy", 0xdb1d2d3b87d1231e),
    ("fairy_forest_f10", "corner_lo", "node_level", 0x19892aa0ff544e9b),
    ("fairy_forest_f10", "corner_lo", "nested", 0x19892aa0ff544e9b),
    ("fairy_forest_f10", "corner_lo", "in_place", 0x19892aa0ff544e9b),
    ("fairy_forest_f10", "corner_lo", "lazy", 0x19892aa0ff544e9b),
    ("fairy_forest_f10", "corner_hi", "node_level", 0x0df31ebe1ec451a2),
    ("fairy_forest_f10", "corner_hi", "nested", 0x0df31ebe1ec451a2),
    ("fairy_forest_f10", "corner_hi", "in_place", 0x0df31ebe1ec451a2),
    ("fairy_forest_f10", "corner_hi", "lazy", 0x0df31ebe1ec451a2),
    ("fairy_forest_f10", "lazy_tuned", "node_level", 0x3148bbe2608ffe0f),
    ("fairy_forest_f10", "lazy_tuned", "nested", 0x3148bbe2608ffe0f),
    ("fairy_forest_f10", "lazy_tuned", "in_place", 0x3148bbe2608ffe0f),
    ("fairy_forest_f10", "lazy_tuned", "lazy", 0x3148bbe2608ffe0f),
    ("soup20k", "base", "node_level", 0xa3348548bad972e3),
    ("soup20k", "base", "nested", 0xa3348548bad972e3),
    ("soup20k", "base", "in_place", 0xa3348548bad972e3),
    ("soup20k", "base", "lazy", 0xa3348548bad972e3),
    ("soup20k", "corner_lo", "node_level", 0x0c894721277adf2c),
    ("soup20k", "corner_lo", "nested", 0x0c894721277adf2c),
    ("soup20k", "corner_lo", "in_place", 0x0c894721277adf2c),
    ("soup20k", "corner_lo", "lazy", 0x0c894721277adf2c),
    ("soup20k", "corner_hi", "node_level", 0x4ea84862da186ea9),
    ("soup20k", "corner_hi", "nested", 0x4ea84862da186ea9),
    ("soup20k", "corner_hi", "in_place", 0x4ea84862da186ea9),
    ("soup20k", "corner_hi", "lazy", 0x4ea84862da186ea9),
    ("soup20k", "lazy_tuned", "node_level", 0xb02653171fce8704),
    ("soup20k", "lazy_tuned", "nested", 0xb02653171fce8704),
    ("soup20k", "lazy_tuned", "in_place", 0xb02653171fce8704),
    ("soup20k", "lazy_tuned", "lazy", 0xb02653171fce8704),
    ("signed_zero", "base", "node_level", 0xbcf26bca5c1c4873),
    ("signed_zero", "base", "nested", 0xbcf26bca5c1c4873),
    ("signed_zero", "base", "in_place", 0xbcf26bca5c1c4873),
    ("signed_zero", "base", "lazy", 0xbcf26bca5c1c4873),
    ("signed_zero", "corner_lo", "node_level", 0x4b1fcd36d47fcb28),
    ("signed_zero", "corner_lo", "nested", 0x4b1fcd36d47fcb28),
    ("signed_zero", "corner_lo", "in_place", 0x4b1fcd36d47fcb28),
    ("signed_zero", "corner_lo", "lazy", 0x4b1fcd36d47fcb28),
    ("signed_zero", "corner_hi", "node_level", 0x53c87b180c8f175e),
    ("signed_zero", "corner_hi", "nested", 0x53c87b180c8f175e),
    ("signed_zero", "corner_hi", "in_place", 0x53c87b180c8f175e),
    ("signed_zero", "corner_hi", "lazy", 0x53c87b180c8f175e),
    ("signed_zero", "lazy_tuned", "node_level", 0x723187ac4ea86e73),
    ("signed_zero", "lazy_tuned", "nested", 0x723187ac4ea86e73),
    ("signed_zero", "lazy_tuned", "in_place", 0x723187ac4ea86e73),
    ("signed_zero", "lazy_tuned", "lazy", 0x723187ac4ea86e73),
    ("non_finite", "base", "node_level", 0x679a65d4736367d7),
    ("non_finite", "base", "nested", 0x679a65d4736367d7),
    ("non_finite", "base", "in_place", 0x679a65d4736367d7),
    ("non_finite", "base", "lazy", 0x679a65d4736367d7),
    ("non_finite", "corner_lo", "node_level", 0x679a65d4736367d7),
    ("non_finite", "corner_lo", "nested", 0x679a65d4736367d7),
    ("non_finite", "corner_lo", "in_place", 0x679a65d4736367d7),
    ("non_finite", "corner_lo", "lazy", 0x94fd94336d88a4e9),
    ("non_finite", "corner_hi", "node_level", 0x679a65d4736367d7),
    ("non_finite", "corner_hi", "nested", 0x679a65d4736367d7),
    ("non_finite", "corner_hi", "in_place", 0x679a65d4736367d7),
    ("non_finite", "corner_hi", "lazy", 0x679a65d4736367d7),
    ("non_finite", "lazy_tuned", "node_level", 0x679a65d4736367d7),
    ("non_finite", "lazy_tuned", "nested", 0x679a65d4736367d7),
    ("non_finite", "lazy_tuned", "in_place", 0x679a65d4736367d7),
    ("non_finite", "lazy_tuned", "lazy", 0x679a65d4736367d7),
];

fn check_at_width(width: usize) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("pool");
    let actual: Vec<(String, &str, &str, u64)> = pool.install(|| {
        let mut out = Vec::new();
        for (input, mesh) in inputs() {
            for (pname, params) in param_sets() {
                for algo in Algorithm::ALL {
                    out.push((
                        input.clone(),
                        pname,
                        algo.name(),
                        fingerprint(&mesh, algo, &params),
                    ));
                }
            }
        }
        out
    });
    let matches = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(EXPECTED)
            .all(|(a, e)| (a.0.as_str(), a.1, a.2, a.3) == *e);
    if !matches {
        let mut table = String::new();
        for (input, pname, algo, hash) in &actual {
            table.push_str(&format!(
                "    (\"{input}\", \"{pname}\", \"{algo}\", 0x{hash:016x}),\n"
            ));
        }
        panic!("tree fingerprints changed at pool width {width}; the trees built now:\n{table}");
    }
}

#[test]
fn trees_match_pinned_fingerprints_at_pool_width_1() {
    check_at_width(1);
}

#[test]
fn trees_match_pinned_fingerprints_at_pool_width_2() {
    check_at_width(2);
}

#[test]
fn trees_match_pinned_fingerprints_at_pool_width_8() {
    check_at_width(8);
}
