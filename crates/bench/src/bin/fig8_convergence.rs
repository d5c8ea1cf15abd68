//! **Figure 8** — mean speedup over tuning iterations ("convergence") for
//! Sponza (static) and Wood Doll (dynamic).
//!
//! For every repetition we record the per-iteration frame cost; the series
//! plotted is `mean_k(base_median_k / cost_k(i))`. The paper's observation:
//! a stable state after roughly 40 iterations, with far more residual
//! jitter on the dynamic scene.

use kdtune::scenes::{sponza, wood_doll};
use kdtune::Algorithm;
use kdtune_bench::cli::ExperimentArgs;
use kdtune_bench::csv::CsvTable;
use kdtune_bench::harness::{tune_scene_repeated, ExperimentOpts};
use kdtune_bench::stats::mean;
use kdtune_telemetry::outln;

const ALGO: Algorithm = Algorithm::InPlace;

fn main() {
    let args = ExperimentArgs::from_env(&[]);
    let opts = ExperimentOpts::from_args(&args);
    let mut csv = CsvTable::new(["scene", "iteration", "mean_speedup"]);

    outln!(
        "Fig. 8 — mean speedup over tuning iterations ({} repeats, in-place algorithm)",
        opts.repeats
    );

    for scene in [sponza(&opts.scene_params), wood_doll(&opts.scene_params)] {
        let outcomes = tune_scene_repeated(&scene, ALGO, &opts);
        let max_len = outcomes.iter().map(|o| o.history.len()).max().unwrap_or(0);
        outln!("\n{} ({} iterations recorded):", scene.name, max_len);
        let mut series = Vec::with_capacity(max_len);
        for i in 0..max_len {
            let speedups: Vec<f64> = outcomes
                .iter()
                .filter_map(|o| o.history.get(i).map(|&c| o.base_median / c))
                .collect();
            series.push(mean(&speedups));
        }
        // Print a compact sparkline-style summary every few iterations.
        let stride = (max_len / 20).max(1);
        for (i, &s) in series.iter().enumerate() {
            csv.push([scene.name.to_string(), i.to_string(), format!("{s:.4}")]);
            if i % stride == 0 || i + 1 == series.len() {
                let bar_len = ((s / 2.0).clamp(0.0, 1.0) * 40.0) as usize;
                outln!("  iter {:>4}: {:>6.2}x |{}", i, s, "*".repeat(bar_len));
            }
        }
        // Stability check mirroring the paper's "stable after ~40".
        if series.len() > 40 {
            let tail = &series[40..];
            let tail_mean = mean(tail);
            let jitter = tail
                .iter()
                .map(|s| (s - tail_mean).abs())
                .fold(0.0f64, f64::max);
            outln!("  after iteration 40: mean speedup {tail_mean:.2}x, max deviation {jitter:.2}");
        }
    }
    csv.save_into(args.out.as_deref(), "fig8")
        .expect("csv write");
}
