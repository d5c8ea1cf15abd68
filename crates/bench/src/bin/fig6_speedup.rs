//! **Figure 6** — speedup of each tuned algorithm over its base
//! configuration on all six scenes, plus the headline numbers the paper
//! quotes in §V-D-1 (peak speedup, and the near-1.0 cases on Bunny and
//! Fairy Forest).

use kdtune::scenes::{all_scenes, by_name};
use kdtune::Algorithm;
use kdtune_bench::cli::ExperimentArgs;
use kdtune_bench::csv::CsvTable;
use kdtune_bench::harness::{tune_scene_repeated, ExperimentOpts};
use kdtune_bench::stats::median;
use kdtune_telemetry::{outln, print_or_exit};

fn main() {
    let args = ExperimentArgs::from_env(&[]);
    let opts = ExperimentOpts::from_args(&args);
    let scenes = match &args.scene {
        Some(s) => {
            vec![by_name(s, &opts.scene_params).unwrap_or_else(|| panic!("unknown scene {s:?}"))]
        }
        None => all_scenes(&opts.scene_params),
    };

    let mut csv = CsvTable::new(["scene", "algorithm", "speedup"]);
    let mut best: Option<(f64, String)> = None;
    let mut worst: Option<(f64, String)> = None;

    outln!(
        "Fig. 6 — speedup of tuned vs base configuration (median over {} repeats)",
        opts.repeats
    );
    print_or_exit(format_args!("{:<14}", "scene"));
    for algo in Algorithm::ALL {
        print_or_exit(format_args!(" {:>11}", algo.name()));
    }
    outln!();

    for scene in &scenes {
        print_or_exit(format_args!("{:<14}", scene.name));
        for algo in Algorithm::ALL {
            // `--threads N` pins the pool width for the whole tuning run
            // (builds included), so speedups at a given width are
            // reproducible across machines.
            let outcomes = args.with_pool(|| tune_scene_repeated(scene, algo, &opts));
            let speedups: Vec<f64> = outcomes.iter().map(|o| o.speedup).collect();
            let s = median(&speedups);
            print_or_exit(format_args!(" {:>11.2}", s));
            csv.push([
                scene.name.to_string(),
                algo.name().to_string(),
                format!("{s:.4}"),
            ]);
            let label = format!("{} on {}", algo.name(), scene.name);
            if best.as_ref().is_none_or(|(b, _)| s > *b) {
                best = Some((s, label.clone()));
            }
            if worst.as_ref().is_none_or(|(w, _)| s < *w) {
                worst = Some((s, label));
            }
        }
        outln!();
    }

    outln!();
    if let Some((s, label)) = best {
        outln!("highest speedup: {s:.2}x ({label})  [paper: 1.96x, lazy on Sibenik]");
    }
    if let Some((s, label)) = worst {
        outln!("lowest speedup:  {s:.2}x ({label})  [paper: 0.99x, in-place on Bunny]");
    }
    csv.save_into(args.out.as_deref(), "fig6")
        .expect("csv write");
}
