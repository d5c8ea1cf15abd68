//! Reproduces the paper's **Table I** (tunable parameters per algorithm)
//! and **Table II** (tuning parameter ranges) directly from the code's
//! authoritative definitions, so a drift between paper and implementation
//! would be visible here.

use kdtune::autotune::ParamScale;
use kdtune::{tuning_space, Algorithm};
use kdtune_telemetry::outln;

fn main() {
    outln!("Table Ia: parameters of the node-level, nested and in-place algorithms");
    outln!("  CI  Cost for intersecting a triangle");
    outln!("  CB  Cost for duplication of a primitive");
    outln!("  S   Max. number of subtrees per thread");
    outln!();
    outln!("Table Ib: parameters of the lazy construction implementation");
    outln!("  CI  Cost for intersecting a triangle");
    outln!("  CB  Cost for duplication of a primitive");
    outln!("  S   Max. number of subtrees per thread");
    outln!("  R   Minimal resolution of a node");
    outln!();

    // Cross-check against the registered spaces.
    for algo in Algorithm::ALL {
        let space = tuning_space(algo);
        let names: Vec<&str> = space.params().iter().map(|p| p.name.as_str()).collect();
        outln!(
            "{:>10}: tunes {:?} ({} configurations)",
            algo.name(),
            names,
            space.size()
        );
    }
    outln!();

    outln!("Table II: tuning parameter ranges");
    outln!("{:<6} {:<24} scale", "param", "range");
    let space = tuning_space(Algorithm::Lazy); // superset of all algorithms
    for p in space.params() {
        let scale = match p.scale {
            ParamScale::Linear { step } => format!("linear, step {step}"),
            ParamScale::Pow2 => "powers of 2".to_string(),
            ParamScale::Choices { values, len } => format!("choices {:?}", &values[..len as usize]),
        };
        outln!("{:<6} [{}, {}]{:<12} {}", p.name, p.min, p.max, "", scale);
    }
    outln!();
    outln!(
        "base configuration C_base = (CI, CB, S, R) = {:?}  (paper §V-C)",
        kdtune::BASE_CONFIG
    );
}
