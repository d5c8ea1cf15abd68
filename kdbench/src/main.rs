//! Fixed-work benchmark of the kdtune workspace.
//!
//! ```text
//! kdbench --workload <anim_tune|serve_cached> --seed N
//!         --seconds S --trace <0|1> [--bin-dir DIR] [--out-dir DIR]
//! ```
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with the operations attempted and failed and either the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! `run.sh` builds the program and this binary and then calls it; see
//! README.md for the workloads, the checks and the metrics.

mod anim;
mod procfs;
mod reference;
mod serve;
mod stats;
mod trace;

use kdtune::telemetry::json::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("goodput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer that a workload does not
/// run through reads 0 there (every service layer on `anim_tune`, every
/// in-process layer on `serve_cached`).
const PER_LAYER: [(&str, &str); 22] = [
    ("scenes.frame_gen_ms", "ms"),
    ("autotune.cycle_us", "us"),
    ("autotune.tuning_frames", "count"),
    ("kdtree.build_ms.node_level", "ms"),
    ("kdtree.build_ms.nested", "ms"),
    ("kdtree.build_ms.in_place", "ms"),
    ("kdtree.build_ms.lazy", "ms"),
    ("raycast.render_ms", "ms"),
    ("raycast.mrays_per_s", "Mrays/s"),
    ("server.queue_us", "us"),
    ("server.lookup_us", "us"),
    ("server.cache_hit_ratio", "share"),
    ("server.render_us.w1", "us"),
    ("server.render_us.w4", "us"),
    ("server.render_us.w8", "us"),
    ("server.render_us.w16", "us"),
    ("server.query_us", "us"),
    ("server.serialize_us", "us"),
    ("server.frontend_us", "us"),
    ("router.hop_us", "us"),
    ("server.cpu_ms_per_req", "ms"),
    ("router.cpu_ms_per_req", "ms"),
];

/// A run that has not finished by then is stopped, with its servers.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Runs keep going, in whole rounds, until at least this many rounds are
/// timed, so that the medians over rounds have rounds to choose from.
pub const MIN_ROUNDS: usize = 5;

/// Process groups of the services this run started (each service leads
/// its own group, which its shards inherit), killed by the watchdog.
pub static LIVE_GROUPS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Sends SIGKILL to every process of the groups `groups` (best effort).
pub fn kill_groups(groups: &[u32]) {
    if groups.is_empty() {
        return;
    }
    let _ = std::process::Command::new("kill")
        .args(["-KILL", "--"])
        .args(groups.iter().map(|g| format!("-{g}")))
        .stderr(std::process::Stdio::null())
        .status();
}

/// What one timed round of a run measured. Every round of a workload does
/// the same operations, so rounds are comparable samples of the run.
pub struct Round {
    /// How long the round took: wall time (serve) or summed frame latency
    /// (anim_tune).
    pub seconds: f64,
    /// Operations of the round whose output checked correct.
    pub correct: u64,
    /// Latency of each operation of the round.
    pub latency_ms: Vec<f64>,
}

/// What one run measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Run-level invariants (clean server exit, complete replies) held.
    pub correct: bool,
    end_to_end: BTreeMap<&'static str, f64>,
    layers: BTreeMap<String, f64>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            correct: true,
            end_to_end: BTreeMap::new(),
            layers: BTreeMap::new(),
            tracer: None,
        }
    }

    /// Records the end-to-end metrics: the median of the set-up times, and
    /// of each round's goodput and latency percentiles, so that a slow
    /// stretch of the host within a run moves no figure.
    pub fn end_to_end(&mut self, setup_s: &[f64], rounds: &[Round], rss: f64) {
        let per_round =
            |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
        self.end_to_end.insert("setup_s", stats::median(setup_s));
        self.end_to_end.insert(
            "goodput_per_s",
            per_round(&|r| r.correct as f64 / r.seconds),
        );
        self.end_to_end.insert(
            "latency_ms_p50",
            per_round(&|r| stats::quantile(&r.latency_ms, 0.5)),
        );
        self.end_to_end.insert(
            "latency_ms_p95",
            per_round(&|r| stats::quantile(&r.latency_ms, 0.95)),
        );
        self.end_to_end.insert("peak_rss_mb", rss);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// The result line: `--trace 0` prints the end-to-end metrics,
    /// `--trace 1` the per-layer ones. A value that could not be measured
    /// makes the run incorrect rather than printing a non-number.
    pub fn result_line(&self, trace: bool) -> String {
        let mut correct = self.correct;
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = table.iter().map(|&(name, unit)| {
            let value = if trace {
                self.layers.get(name).copied().unwrap_or(0.0)
            } else {
                self.end_to_end.get(name).copied().unwrap_or(f64::NAN)
            };
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                0.0
            };
            let metric = JsonValue::object([("value", value.into()), ("unit", unit.into())]);
            (name, metric)
        });
        let metrics = JsonValue::object(metrics.collect::<Vec<_>>());
        JsonValue::object([
            ("correct", correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics),
        ])
        .to_string()
    }

    /// The end-to-end figures as one line, for comparing a traced run with
    /// untraced ones.
    pub fn end_to_end_summary(&self) -> String {
        let parts: Vec<String> = self
            .end_to_end
            .iter()
            .map(|(k, v)| format!("{k}={v:.4}"))
            .collect();
        parts.join(" ")
    }
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates over
/// splitmix64), so the same seed always gives the same order.
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The order of round `round` of a run seeded with `seed`. Every round
/// has its own order, so a run's figures average over many orders rather
/// than repeating one that a single seed happened to draw.
pub fn round_order(n: usize, seed: u64, round: u64) -> Vec<usize> {
    seeded_order(n, seed.rotate_left(24) ^ round)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::from(target).join("release"),
        out_dir: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--bin-dir" => parsed.bin_dir = PathBuf::from(value),
            "--out-dir" => parsed.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !parsed.seconds.is_finite() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kdbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        let groups = LIVE_GROUPS.lock().map(|g| g.clone()).unwrap_or_default();
        kill_groups(&groups);
        eprintln!("kdbench: run exceeded {WATCHDOG:?}; stopped");
        std::process::exit(3);
    });
    let report = match args.workload.as_str() {
        "anim_tune" => Ok(anim::run(args.seed, args.seconds, args.trace)),
        "serve_cached" => serve::run(
            &args.bin_dir,
            &args.out_dir,
            args.seed,
            args.seconds,
            args.trace,
        ),
        other => Err(format!(
            "unknown workload {other:?} (expected anim_tune or serve_cached)"
        )),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("kdbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(tracer) = report.tracer.as_ref().filter(|t| t.enabled()) {
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => eprintln!("kdbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("kdbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        eprintln!("kdbench: traced end-to-end {}", report.end_to_end_summary());
    }
    println!("{}", report.result_line(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_order_is_a_deterministic_permutation() {
        let a = seeded_order(20, 7);
        assert_eq!(a, seeded_order(20, 7));
        assert_ne!(a, seeded_order(20, 8));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_eq!(round_order(20, 7, 3), round_order(20, 7, 3));
        assert_ne!(round_order(20, 7, 3), round_order(20, 7, 4));
        assert_ne!(round_order(20, 7, 0), round_order(20, 8, 0));
    }

    #[test]
    fn result_line_has_every_metric_and_parses() {
        use kdtune::telemetry::json::parse;
        let members = |v: &JsonValue| match v {
            JsonValue::Object(m) => m.len(),
            _ => 0,
        };
        let mut r = Report::new(10, 1);
        let round = |seconds: f64, latency_ms: Vec<f64>| Round {
            seconds,
            correct: latency_ms.len() as u64,
            latency_ms,
        };
        r.end_to_end(&[0.5], &[round(0.06, vec![1.0, 2.0, 3.0])], 12.0);
        let line = parse(&r.result_line(false)).unwrap();
        assert_eq!(line.get("attempted").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(members(line.get("metrics").unwrap()), END_TO_END.len());
        let p50 = line
            .get("metrics")
            .and_then(|m| m.get("latency_ms_p50"))
            .unwrap();
        assert_eq!(p50.get("value").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(p50.get("unit").and_then(JsonValue::as_str), Some("ms"));

        let goodput = metrics_value(&line, "goodput_per_s");
        assert!((goodput - 50.0).abs() < 1e-9);

        r.layer("server.query_us", 5.5);
        let traced = parse(&r.result_line(true)).unwrap();
        assert_eq!(members(traced.get("metrics").unwrap()), PER_LAYER.len());

        r.end_to_end(&[f64::NAN], &[round(1.0, vec![1.0])], 1.0);
        let broken = parse(&r.result_line(false)).unwrap();
        assert_eq!(
            broken.get("correct").and_then(JsonValue::as_bool),
            Some(false)
        );
    }

    fn metrics_value(line: &JsonValue, name: &str) -> f64 {
        line.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .unwrap()
    }

    /// One slow round, such as a stretch in which the host gave the run
    /// less CPU, moves none of the end-to-end figures.
    #[test]
    fn figures_are_medians_over_rounds() {
        use kdtune::telemetry::json::parse;
        let steady: Vec<f64> = (1..=100).map(f64::from).collect();
        let slow: Vec<f64> = steady.iter().map(|l| l * 10.0).collect();
        let round = |latency_ms: &Vec<f64>| Round {
            seconds: latency_ms.iter().sum::<f64>() / 1e3,
            correct: latency_ms.len() as u64,
            latency_ms: latency_ms.clone(),
        };
        let mut r = Report::new(300, 0);
        r.end_to_end(
            &[0.3, 0.1, 0.2],
            &[round(&steady), round(&slow), round(&steady)],
            5.0,
        );
        let line = parse(&r.result_line(false)).unwrap();
        assert_eq!(metrics_value(&line, "setup_s"), 0.2);
        assert!((metrics_value(&line, "goodput_per_s") - 100.0 / 5.05).abs() < 1e-9);
        assert!((metrics_value(&line, "latency_ms_p50") - 50.5).abs() < 1e-9);
        assert!((metrics_value(&line, "latency_ms_p95") - 95.05).abs() < 1e-9);
    }
}
