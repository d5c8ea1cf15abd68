//! **Figure 5** — absolute per-frame execution time with and without
//! tuning, for the Sibenik, Sponza and Fairy Forest scenes across all four
//! construction algorithms.
//!
//! The paper shows bar pairs (base configuration vs tuned configuration)
//! per algorithm per scene; this binary prints the same pairs as a table
//! and optionally emits `fig5.csv`.

use kdtune::scenes::by_name;
use kdtune::Algorithm;
use kdtune_bench::cli::ExperimentArgs;
use kdtune_bench::csv::CsvTable;
use kdtune_bench::harness::{tune_scene_repeated, ExperimentOpts};
use kdtune_bench::stats::median;
use kdtune_telemetry::outln;

const SCENES: [&str; 3] = ["sibenik", "sponza", "fairy_forest"];

fn main() {
    let args = ExperimentArgs::from_env(&[]);
    let opts = ExperimentOpts::from_args(&args);
    let scene_filter: Vec<&str> = match &args.scene {
        Some(s) => vec![s.as_str()],
        None => SCENES.to_vec(),
    };

    let mut csv = CsvTable::new([
        "scene",
        "algorithm",
        "base_ms",
        "tuned_ms",
        "speedup",
        "converged_runs",
    ]);
    outln!(
        "Fig. 5 — absolute execution time per frame (median over {} repeats)",
        opts.repeats
    );
    outln!(
        "{:<14} {:<12} {:>10} {:>10} {:>8}",
        "scene",
        "algorithm",
        "base ms",
        "tuned ms",
        "speedup"
    );
    for name in scene_filter {
        let scene =
            by_name(name, &opts.scene_params).unwrap_or_else(|| panic!("unknown scene {name:?}"));
        for algo in Algorithm::ALL {
            let outcomes = tune_scene_repeated(&scene, algo, &opts);
            let base = median(&outcomes.iter().map(|o| o.base_median).collect::<Vec<_>>());
            let tuned = median(&outcomes.iter().map(|o| o.tuned_median).collect::<Vec<_>>());
            let speedup = base / tuned;
            let converged = outcomes.iter().filter(|o| o.converged).count();
            outln!(
                "{:<14} {:<12} {:>10.2} {:>10.2} {:>8.2}",
                name,
                algo.name(),
                base * 1e3,
                tuned * 1e3,
                speedup
            );
            csv.push([
                name.to_string(),
                algo.name().to_string(),
                format!("{:.4}", base * 1e3),
                format!("{:.4}", tuned * 1e3),
                format!("{speedup:.4}"),
                format!("{converged}/{}", outcomes.len()),
            ]);
        }
    }
    csv.save_into(args.out.as_deref(), "fig5")
        .expect("csv write");
}
