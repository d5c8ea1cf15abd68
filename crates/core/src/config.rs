//! The paper's canonical configurations and search space.

use kdtune_autotune::{Config, ParamSpec, SearchSpace};
use kdtune_kdtree::{Algorithm, BuildParams};

/// The manually crafted base configuration `C_base = (17, 10, 3, 2^12)`
/// from §V-C, "based on best practices and recommendations from
/// literature". Order: `(CI, CB, S, R)`.
pub const BASE_CONFIG: (i64, i64, i64, i64) = (17, 10, 3, 4096);

/// `C_base` as a [`Config`] for the given algorithm (the lazy algorithm
/// carries the fourth parameter `R`; the others tune `(CI, CB, S)`).
pub fn base_config(algorithm: Algorithm) -> Config {
    let (ci, cb, s, r) = BASE_CONFIG;
    match algorithm {
        Algorithm::Lazy => Config(vec![ci, cb, s, r]),
        _ => Config(vec![ci, cb, s]),
    }
}

/// `C_base` as ready-to-use [`BuildParams`].
pub fn base_build_params() -> BuildParams {
    let (ci, cb, s, r) = BASE_CONFIG;
    BuildParams::from_config(ci as f32, cb as f32, s as u32, r as u32)
}

/// Maps tuned values, in [`tuning_space`] order, to [`BuildParams`]. `R`
/// is read for the lazy builder only; a missing value falls back to
/// `C_base`, and values past the paper's space (the packet axes) are
/// ignored.
pub fn params_from_values(algorithm: Algorithm, values: &[i64]) -> BuildParams {
    let (ci, cb, s, r) = BASE_CONFIG;
    let get = |i: usize, default: i64| values.get(i).copied().unwrap_or(default);
    let r = if algorithm == Algorithm::Lazy {
        get(3, r)
    } else {
        r
    };
    BuildParams::from_config(
        get(0, ci) as f32,
        get(1, cb) as f32,
        get(2, s) as u32,
        r as u32,
    )
}

/// The tuning search space of Table II for the given algorithm:
/// `CI ∈ [3, 101]`, `CB ∈ [0, 60]`, `S ∈ [1, 8]`, and for the lazy
/// algorithm additionally `R ∈ [16, 8192]` (powers of two).
pub fn tuning_space(algorithm: Algorithm) -> SearchSpace {
    let mut space = SearchSpace::new();
    space.add(ParamSpec::linear("CI", 3, 101, 1));
    space.add(ParamSpec::linear("CB", 0, 60, 1));
    space.add(ParamSpec::linear("S", 1, 8, 1));
    if algorithm == Algorithm::Lazy {
        space.add(ParamSpec::pow2("R", 16, 8192));
    }
    space
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_matches_paper() {
        assert_eq!(base_config(Algorithm::Lazy).values(), &[17, 10, 3, 4096]);
        assert_eq!(base_config(Algorithm::InPlace).values(), &[17, 10, 3]);
        let p = base_build_params();
        assert_eq!(p.sah.ci, 17.0);
        assert_eq!(p.sah.cb, 10.0);
        assert_eq!(p.sah.ct, 10.0);
        assert_eq!(p.s, 3);
        assert_eq!(p.r, 4096);
    }

    #[test]
    fn params_from_values_honors_the_lazy_r_dimension() {
        let eager = params_from_values(Algorithm::InPlace, &[21, 11, 4]);
        assert_eq!((eager.s, eager.r), (4, 4096));
        let lazy = params_from_values(Algorithm::Lazy, &[21, 11, 4, 256]);
        assert_eq!((lazy.s, lazy.r), (4, 256));
        // Packet axes after the paper's space do not leak into R.
        let packets = params_from_values(Algorithm::InPlace, &[21, 11, 4, 8, 2]);
        assert_eq!((packets.s, packets.r), (4, 4096));
        assert_eq!(
            params_from_values(Algorithm::Lazy, &[]),
            base_build_params()
        );
    }

    #[test]
    fn space_dimensions_match_table_one() {
        assert_eq!(tuning_space(Algorithm::NodeLevel).dim(), 3);
        assert_eq!(tuning_space(Algorithm::Nested).dim(), 3);
        assert_eq!(tuning_space(Algorithm::InPlace).dim(), 3);
        assert_eq!(tuning_space(Algorithm::Lazy).dim(), 4);
    }

    #[test]
    fn base_config_is_valid_in_space() {
        for algo in Algorithm::ALL {
            let space = tuning_space(algo);
            let c = base_config(algo);
            assert_eq!(space.snap_values(c.values()), c, "{algo}");
        }
    }
}
