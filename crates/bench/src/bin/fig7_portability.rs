//! **Figure 7** — distribution of tuned configurations for the in-place
//! algorithm, normalized to 0–100 per parameter:
//!
//! * (a) across the static scenes,
//! * (b) across the dynamic scenes,
//! * (c) with `--platforms`, across four emulated hardware profiles on
//!   the Sibenik scene.
//!
//! The paper's point is that the boxes barely overlap between scenes (and
//! between machines): tuned configurations are *not portable*.

use kdtune::scenes::{dynamic_scenes, sibenik, static_scenes};
use kdtune::{Algorithm, Config};
use kdtune_bench::cli::ExperimentArgs;
use kdtune_bench::csv::CsvTable;
use kdtune_bench::harness::{normalized_percent, tune_scene_repeated, ExperimentOpts};
use kdtune_bench::platforms::{run_on, PLATFORMS};
use kdtune_bench::stats::{ascii_box, five_num};
use kdtune_telemetry::outln;

const ALGO: Algorithm = Algorithm::InPlace;

fn report(group: &str, label: &str, configs: &[Config], csv: &mut CsvTable) {
    outln!("\n  {label}:");
    for (param, values) in normalized_percent(ALGO, configs) {
        let f = five_num(&values);
        outln!(
            "    {:<3} |{}| {}",
            param,
            ascii_box(&f, 0.0, 100.0, 40),
            f.render(0)
        );
        csv.push([
            group.to_string(),
            label.to_string(),
            param,
            format!("{:.2}", f.min),
            format!("{:.2}", f.q1),
            format!("{:.2}", f.median),
            format!("{:.2}", f.q3),
            format!("{:.2}", f.max),
        ]);
    }
}

fn main() {
    let args = ExperimentArgs::from_env(&["--platforms"]);
    let opts = ExperimentOpts::from_args(&args);
    let mut csv = CsvTable::new([
        "group", "label", "param", "min", "q1", "median", "q3", "max",
    ]);

    outln!(
        "Fig. 7 — tuned configuration distributions, in-place algorithm, {} repeats,",
        opts.repeats
    );
    outln!("normalized to [0, 100] per parameter (min/q1/median/q3/max)");

    if args.has_flag("--platforms") {
        // (c) four emulated platforms on Sibenik.
        outln!("\n(c) Sibenik across emulated platforms (thread-pool widths)");
        let scene = sibenik(&opts.scene_params);
        for platform in PLATFORMS {
            // `--threads N` overrides every profile's width — useful for
            // checking how much of the (c) spread is the pool width vs
            // run-to-run tuner noise.
            let width = args.threads.unwrap_or(platform.threads);
            let outcomes = run_on(width, || tune_scene_repeated(&scene, ALGO, &opts));
            let configs: Vec<Config> = outcomes.into_iter().map(|o| o.tuned_config).collect();
            report("platforms", platform.name, &configs, &mut csv);
        }
    } else {
        outln!("\n(a) static scenes");
        for scene in static_scenes(&opts.scene_params) {
            let outcomes = args.with_pool(|| tune_scene_repeated(&scene, ALGO, &opts));
            let configs: Vec<Config> = outcomes.into_iter().map(|o| o.tuned_config).collect();
            report("static", scene.name, &configs, &mut csv);
        }
        outln!("\n(b) dynamic scenes");
        for scene in dynamic_scenes(&opts.scene_params) {
            let outcomes = args.with_pool(|| tune_scene_repeated(&scene, ALGO, &opts));
            let configs: Vec<Config> = outcomes.into_iter().map(|o| o.tuned_config).collect();
            report("dynamic", scene.name, &configs, &mut csv);
        }
    }
    csv.save_into(args.out.as_deref(), "fig7")
        .expect("csv write");
}
