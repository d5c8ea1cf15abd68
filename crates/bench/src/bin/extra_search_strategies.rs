//! **Extension (beyond the paper)** — head-to-head of search strategies on
//! the real tuning landscape: AtuneRT's seeded Nelder–Mead vs discrete
//! hill climbing vs pure random search, all given the same evaluation
//! budget on the Sibenik scene.
//!
//! The paper argues for Nelder–Mead via the exhaustive comparison (Fig. 9);
//! this binary adds the classic cheaper baselines to show *why* the
//! simplex is the right default: hill climbing strands in local minima and
//! random search wastes its budget.

use kdtune::scenes::sibenik;
use kdtune::{tuning_space, Algorithm};
use kdtune_autotune::{HillClimb, NelderMeadSearch, RandomSearch, SearchStrategy};
use kdtune_bench::cli::ExperimentArgs;
use kdtune_bench::csv::CsvTable;
use kdtune_bench::harness::{measure_config, ExperimentOpts};
use kdtune_bench::stats::five_num;
use kdtune_telemetry::outln;
use rand::Rng as _;

const ALGO: Algorithm = Algorithm::InPlace;

/// Drives any strategy for `budget` real measurements; returns the best
/// measured cost.
fn drive(
    strategy: &mut dyn SearchStrategy,
    scene: &kdtune::Scene,
    opts: &ExperimentOpts,
    budget: usize,
) -> f64 {
    let space = tuning_space(ALGO);
    for _ in 0..budget {
        let Some(point) = strategy.ask() else { break };
        let config = space.snap(&point);
        let cost = measure_config(scene, ALGO, config.values(), opts, 1);
        strategy.tell(cost);
    }
    strategy.best().expect("evaluated at least once").1
}

fn main() {
    let args = ExperimentArgs::from_env(&[]);
    let opts = ExperimentOpts::from_args(&args);
    let budget = if args.quick { 60 } else { 150 };
    let scene = sibenik(&opts.scene_params);
    let space = tuning_space(ALGO);
    let counts: Vec<usize> = space.params().iter().map(|p| p.count()).collect();

    let mut csv = CsvTable::new([
        "strategy",
        "min_ms",
        "q1_ms",
        "median_ms",
        "q3_ms",
        "max_ms",
    ]);
    outln!(
        "Search strategies on Sibenik / in-place, {} evaluations each, {} repeats",
        budget,
        opts.repeats
    );
    outln!(
        "{:<14} {:>40}",
        "strategy",
        "best found, ms (min/q1/med/q3/max)"
    );

    type Factory<'a> = (&'a str, Box<dyn Fn(u64) -> Box<dyn SearchStrategy>>);
    let space_for_nm = space.clone();
    let factories: Vec<Factory> = vec![
        (
            "nelder_mead",
            Box::new(move |seed| {
                let space = space_for_nm.clone();
                Box::new(NelderMeadSearch::new(
                    space.dim(),
                    8,
                    seed,
                    move |rng| space.random_point(rng),
                    0.02,
                    200,
                ))
            }),
        ),
        (
            "hill_climb",
            Box::new({
                let counts = counts.clone();
                move |seed| Box::new(HillClimb::new(counts.clone(), seed))
            }),
        ),
        (
            "random",
            Box::new(move |seed| {
                Box::new(RandomSearch::new(seed, usize::MAX, |rng| {
                    (0..3).map(|_| rng.gen_range(0.0..1.0)).collect()
                }))
            }),
        ),
    ];

    for (name, factory) in &factories {
        let results: Vec<f64> = (0..opts.repeats)
            .map(|k| {
                let mut s = factory(opts.base_seed + k as u64);
                drive(s.as_mut(), &scene, &opts, budget) * 1e3
            })
            .collect();
        let f = five_num(&results);
        outln!("{:<14} {:>40}", name, f.render(2));
        csv.push([
            name.to_string(),
            format!("{:.4}", f.min),
            format!("{:.4}", f.q1),
            format!("{:.4}", f.median),
            format!("{:.4}", f.q3),
            format!("{:.4}", f.max),
        ]);
    }
    csv.save_into(args.out.as_deref(), "extra_search_strategies")
        .expect("csv write");
}
