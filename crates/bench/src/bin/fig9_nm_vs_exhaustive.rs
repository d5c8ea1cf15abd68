//! **Figure 9** — Nelder–Mead vs exhaustive search vs the default
//! configuration on the Sibenik scene, for all four algorithms.
//!
//! The exhaustive baseline walks a strided grid over the Table II space
//! (the full space has ~483 k points; the paper's comparison necessarily
//! coarsened too). For each algorithm we print the runtime distribution of
//! the configurations found by repeated Nelder–Mead runs, the strided-grid
//! optimum, and the default configuration — the paper's finding is that
//! the NM median lands within a few percent of the exhaustive optimum,
//! with rare local-minimum outliers.

use kdtune::scenes::sibenik;
use kdtune::{tuning_space, Algorithm, SearchSpace, BASE_CONFIG};
use kdtune_autotune::{ExhaustiveSearch, SearchStrategy};
use kdtune_bench::cli::ExperimentArgs;
use kdtune_bench::csv::CsvTable;
use kdtune_bench::harness::{measure_config, tune_scene_repeated, ExperimentOpts};
use kdtune_bench::stats::five_num;
use kdtune_telemetry::outln;

/// Runs the exhaustive grid (strided) and returns (best cost, evaluations).
fn exhaustive_best(
    scene: &kdtune::Scene,
    algorithm: Algorithm,
    space: &SearchSpace,
    opts: &ExperimentOpts,
    stride: usize,
) -> (f64, usize) {
    let counts: Vec<usize> = space.params().iter().map(|p| p.count()).collect();
    let mut search = ExhaustiveSearch::with_uniform_stride(counts, stride);
    while let Some(point) = search.ask() {
        let config = space.snap(&point);
        let cost = measure_config(scene, algorithm, config.values(), opts, 1);
        search.tell(cost);
    }
    let (_, best) = search.best().expect("grid evaluated");
    (best, search.evaluations())
}

fn main() {
    let args = ExperimentArgs::from_env(&[]);
    let opts = ExperimentOpts::from_args(&args);
    // Grid stride: quick mode visits a coarse lattice, full mode a finer
    // one. Endpoints are always included by ExhaustiveSearch.
    let stride = if args.quick { 24 } else { 12 };
    let scene = sibenik(&opts.scene_params);
    let mut csv = CsvTable::new([
        "algorithm",
        "nm_min_ms",
        "nm_q1_ms",
        "nm_median_ms",
        "nm_q3_ms",
        "nm_max_ms",
        "exhaustive_ms",
        "exhaustive_evals",
        "default_ms",
    ]);

    outln!(
        "Fig. 9 — Nelder–Mead vs exhaustive vs default on Sibenik ({} NM repeats, grid stride {})",
        opts.repeats,
        stride
    );
    outln!(
        "{:<12} {:>34} {:>12} {:>12}",
        "algorithm",
        "NM runtime ms (min/q1/med/q3/max)",
        "exhaustive",
        "default"
    );

    for algo in Algorithm::ALL {
        let space = tuning_space(algo);
        // Nelder–Mead distribution: steady-state runtime of each repeat.
        let outcomes = tune_scene_repeated(&scene, algo, &opts);
        let nm_ms: Vec<f64> = outcomes.iter().map(|o| o.tuned_median * 1e3).collect();
        let f = five_num(&nm_ms);

        let (ex_best, ex_evals) = exhaustive_best(&scene, algo, &space, &opts, stride);
        let (ci, cb, s, r) = BASE_CONFIG;
        let default_values: Vec<i64> = match algo {
            Algorithm::Lazy => vec![ci, cb, s, r],
            _ => vec![ci, cb, s],
        };
        let default_cost = measure_config(&scene, algo, &default_values, &opts, opts.steady_window);

        outln!(
            "{:<12} {:>34} {:>9.2}ms {:>9.2}ms",
            algo.name(),
            f.render(2),
            ex_best * 1e3,
            default_cost * 1e3
        );
        let gap = (f.median / (ex_best * 1e3) - 1.0) * 100.0;
        outln!(
            "{:<12} NM median vs exhaustive optimum: {:+.1}% ({} grid points)",
            "",
            gap,
            ex_evals
        );
        csv.push([
            algo.name().to_string(),
            format!("{:.4}", f.min),
            format!("{:.4}", f.q1),
            format!("{:.4}", f.median),
            format!("{:.4}", f.q3),
            format!("{:.4}", f.max),
            format!("{:.4}", ex_best * 1e3),
            ex_evals.to_string(),
            format!("{:.4}", default_cost * 1e3),
        ]);
    }
    csv.save_into(args.out.as_deref(), "fig9")
        .expect("csv write");
}
