//! CLI entry points for the `serve` and `loadgen` subcommands, shared by
//! the dedicated `renderd`/`loadgen` binaries and the `kdtune` umbrella.

use crate::loadgen::{self, LoadgenOptions};
use crate::router::{Router, RouterConfig, ShardMode};
use crate::server::{RenderServer, ServerConfig};
use crate::top::{self, TopOptions};
use kdtune_telemetry as telemetry;
use kdtune_telemetry::json::JsonValue;
use kdtune_telemetry::sinks::JsonlRecorder;
use std::path::PathBuf;
use std::sync::Arc;

/// Usage text for `serve` / `renderd`.
pub const SERVE_USAGE: &str = "\
renderd — multi-session render/tuning service

USAGE:
    kdtune serve [OPTIONS]           (equivalently: renderd [OPTIONS])

OPTIONS:
    --addr HOST:PORT     listen address        [default: 127.0.0.1:7464]
    --workers N          render worker threads [default: 2]
    --queue N            queue capacity before `busy` rejections [default: 64]
    --cache-mb N         tree cache capacity in MiB [default: 128]
    --store FILE         tuned-config JSONL store [default: renderd_configs.jsonl]
    --slow-ms N          slow-request trace threshold in ms [default: 250]
    --max-conns N        concurrent connection limit; excess accepts get a
                         `busy` error and are closed [default: 1024]
    --drain-ms N         shutdown drain deadline before lingering
                         connections are force-closed [default: 5000]
    --trace FILE         record a JSONL telemetry trace
    --help               show this help

PROTOCOL (one JSON object per line, on both sides):
    {\"id\":1,\"cmd\":\"render\",\"scene\":\"bunny\",\"scale\":\"tiny\",\"res\":64,\"frame\":0}
    {\"id\":2,\"cmd\":\"tune_step\",\"scene\":\"bunny\",\"scale\":\"tiny\",\"steps\":2}
    {\"id\":3,\"cmd\":\"stats\"}
    {\"id\":4,\"cmd\":\"metrics\"}
    {\"id\":5,\"cmd\":\"shutdown\"}

Requests may carry a \"trace\" string; it is echoed in the response, and
successful render/tune responses include a per-stage latency breakdown
under result.stages.
";

/// Usage text for `route`.
pub const ROUTE_USAGE: &str = "\
kdtune route — consistent-hash router over N renderd shard processes

Each request's session key (scene@scale/algo/res/wN) hashes onto a fixed
ring, so one shard exclusively owns each session: its tree cache and
warm-start store only ever see their own slice of the keyspace. A dead
shard's keys re-hash to survivors (in-flight requests on it get a
structured `unavailable` error, never a hang) and snap back when the
shard returns; `stats`/`metrics` fan out to every shard and merge.

USAGE:
    kdtune route [OPTIONS]

OPTIONS:
    --addr HOST:PORT     router listen address  [default: 127.0.0.1:7465]
    --shards N           spawn N renderd shard children on ephemeral ports,
                         supervised (respawned with backoff on exit) [default: 2]
    --attach A,B,...     attach to externally managed renderd instances at
                         these addresses instead of spawning (mutually
                         exclusive with --shards; shutdown then drains the
                         router only)
    --workers N          render workers per spawned shard [default: 1]
    --queue N            queue capacity per spawned shard [default: 64]
    --cache-mb N         tree cache MiB per spawned shard [default: 128]
    --store FILE         config store base; spawned shard i writes
                         FILE.shard<i>.jsonl [default: renderd_configs.jsonl]
    --max-conns N        client connection limit [default: 1024]
    --pending N          per-shard in-flight cap before `busy` shed [default: 256]
    --drain-ms N         shutdown drain deadline [default: 5000]
    --help               show this help

The wire protocol is identical to renderd's, so loadgen/top/metrics all
work unchanged against a router address.
";

/// Usage text for `top`.
pub const TOP_USAGE: &str = "\
kdtune top — live renderd dashboard (windowed latency, queue, cache,
per-session tuner convergence, slow-request exemplars)

USAGE:
    kdtune top [OPTIONS]

OPTIONS:
    --addr HOST:PORT     server address [default: 127.0.0.1:7464]
    --interval-ms N      refresh interval [default: 1000]
    --iterations N       stop after N repaints (0 = run forever) [default: 0]
    --no-clear           do not clear the screen between repaints
    --help               show this help
";

/// Usage text for `metrics`.
pub const METRICS_USAGE: &str = "\
kdtune metrics — scrape a renderd instance's Prometheus-style exposition

USAGE:
    kdtune metrics [--addr HOST:PORT]

Prints the text exposition to stdout, e.g. for piping into a file or a
push gateway:  kdtune metrics --addr 127.0.0.1:7464 > metrics.prom
";

/// Usage text for `loadgen`.
pub const LOADGEN_USAGE: &str = "\
loadgen — drive a renderd instance with a mixed render/tune workload

USAGE:
    kdtune loadgen [OPTIONS]         (equivalently: loadgen [OPTIONS])

OPTIONS:
    --addr HOST:PORT     server address [default: 127.0.0.1:7464]
    --connections N      concurrent connections [default: 4]
    --requests N         total requests across connections [default: 400]
    --scenes A,B,...     scenes, round-robin [default: bunny,fairy_forest]
    --scale NAME         quick | tiny | paper [default: tiny]
    --res N              render resolution [default: 64]
    --algo NAME          node_level | nested | in_place | lazy [default: in_place]
    --packet-width W     ray-packet width sent with every request:
                         0/1 = scalar, 4/8/16 = packet tiles [default: 1]
    --frames N           frame indices cycled per scene [default: 2]
    --tune-every N       every n-th request is a tune_step; 0 disables [default: 4]
    --tune-steps N       tuner steps per tune_step request [default: 2]
    --mix R:Q            mixed workload: out of every R+Q requests, Q are
                         point-query batches (cmd=query, server-default batch
                         shape) instead of renders; the report and summary
                         break goodput and latency out per workload
                         (e.g. --mix 3:1 for 25% queries)
    --curve A,B,...      connection-scaling mode: run the workload once per
                         connection count (e.g. 4,16,64,256,1024) against the
                         same server and report a connections-vs-throughput/
                         latency curve; each point sends at least
                         --per-conn-floor requests per connection
    --per-conn-floor N   minimum requests per connection at each curve point,
                         so high-connection points measure sustained service
                         rate instead of a connect burst [default: 2]
    --router             expect a kdtune route front: fail unless stats
                         identifies a router, and report per-shard counts
    --smoke              small self-terminating smoke workload (implies --shutdown)
    --shutdown           send shutdown after the run (in curve mode: after the
                         final point)
    --out FILE           JSON report path [default: results/BENCH_server.json]
    --help               show this help
";

fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("{name} needs a value"));
            }
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
    }
}

fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match take_value(args, name)? {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{name}: cannot parse {raw:?}")),
    }
}

fn reject_leftovers(args: &[String], usage: &str) -> Result<(), String> {
    match args.first() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected argument {extra:?}\n\n{usage}")),
    }
}

/// `kdtune serve` / `renderd`: parse flags, bind, and serve until a
/// `shutdown` request arrives. Blocks.
pub fn serve(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if take_flag(&mut args, "--help") {
        telemetry::outln!("{SERVE_USAGE}");
        return Ok(());
    }
    let mut config = ServerConfig::default();
    config.addr = take_parsed(&mut args, "--addr", config.addr)?;
    config.workers = take_parsed(&mut args, "--workers", config.workers)?;
    config.queue_capacity = take_parsed(&mut args, "--queue", config.queue_capacity)?;
    config.cache_bytes =
        take_parsed(&mut args, "--cache-mb", config.cache_bytes / (1024 * 1024))? * 1024 * 1024;
    config.store_path = PathBuf::from(take_parsed(
        &mut args,
        "--store",
        config.store_path.display().to_string(),
    )?);
    config.slow_ms = take_parsed(&mut args, "--slow-ms", config.slow_ms)?;
    config.max_conns = take_parsed(&mut args, "--max-conns", config.max_conns)?;
    config.drain_ms = take_parsed(&mut args, "--drain-ms", config.drain_ms)?;
    let trace = take_value(&mut args, "--trace")?;
    reject_leftovers(&args, SERVE_USAGE)?;

    if let Some(path) = trace {
        let recorder =
            JsonlRecorder::create(path.as_ref()).map_err(|e| format!("--trace {path}: {e}"))?;
        telemetry::set_recorder(Arc::new(recorder));
    }
    let server =
        RenderServer::bind(config.clone()).map_err(|e| format!("bind {}: {e}", config.addr))?;
    telemetry::outln!(
        "renderd listening on {} ({} workers, queue {}, cache {} MiB, max {} conns, store {})",
        server.local_addr(),
        config.workers,
        config.queue_capacity,
        config.cache_bytes / (1024 * 1024),
        config.max_conns,
        config.store_path.display()
    );
    let result = server.run().map_err(|e| format!("server error: {e}"));
    telemetry::flush();
    telemetry::clear_recorder();
    result?;
    telemetry::outln!("renderd: drained and stopped");
    Ok(())
}

/// `kdtune loadgen` / `loadgen`: parse flags, run the workload, print a
/// summary, and fail on transport or protocol errors.
pub fn loadgen(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if take_flag(&mut args, "--help") {
        telemetry::outln!("{LOADGEN_USAGE}");
        return Ok(());
    }
    let smoke = take_flag(&mut args, "--smoke");
    let addr = take_parsed(&mut args, "--addr", "127.0.0.1:7464".to_string())?;
    let mut options = if smoke {
        LoadgenOptions::smoke(addr)
    } else {
        LoadgenOptions::defaults(addr)
    };
    options.connections = take_parsed(&mut args, "--connections", options.connections)?;
    options.requests = take_parsed(&mut args, "--requests", options.requests)?;
    if let Some(scenes) = take_value(&mut args, "--scenes")? {
        options.scenes = scenes
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
    }
    options.scale = take_parsed(&mut args, "--scale", options.scale)?;
    options.res = take_parsed(&mut args, "--res", options.res)?;
    options.algo = take_parsed(&mut args, "--algo", options.algo)?;
    options.packet_width = take_parsed(&mut args, "--packet-width", options.packet_width)?;
    if ![0, 1, 4, 8, 16].contains(&options.packet_width) {
        return Err(format!(
            "--packet-width {}: expected one of 0, 1, 4, 8, 16",
            options.packet_width
        ));
    }
    options.frames = take_parsed(&mut args, "--frames", options.frames)?;
    options.tune_every = take_parsed(&mut args, "--tune-every", options.tune_every)?;
    options.tune_steps = take_parsed(&mut args, "--tune-steps", options.tune_steps)?;
    if let Some(raw) = take_value(&mut args, "--mix")? {
        let (render, query) = raw
            .split_once(':')
            .ok_or_else(|| format!("--mix: expected RENDER:QUERY, got {raw:?}"))?;
        let render: usize = render
            .trim()
            .parse()
            .map_err(|_| format!("--mix: cannot parse render share {render:?}"))?;
        let query: usize = query
            .trim()
            .parse()
            .map_err(|_| format!("--mix: cannot parse query share {query:?}"))?;
        if render + query == 0 {
            return Err("--mix: ratio must have a nonzero side".into());
        }
        options.mix = Some((render, query));
    }
    options.per_conn_floor = take_parsed(&mut args, "--per-conn-floor", options.per_conn_floor)?;
    options.shutdown_after |= take_flag(&mut args, "--shutdown");
    options.expect_router = take_flag(&mut args, "--router");
    if let Some(out) = take_value(&mut args, "--out")? {
        options.out = Some(PathBuf::from(out));
    }
    let curve: Option<Vec<usize>> = match take_value(&mut args, "--curve")? {
        None => None,
        Some(raw) => Some(
            raw.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse()
                        .map_err(|_| format!("--curve: cannot parse {s:?}"))
                })
                .collect::<Result<_, _>>()?,
        ),
    };
    reject_leftovers(&args, LOADGEN_USAGE)?;

    let reports: Vec<(Option<usize>, loadgen::LoadgenReport)> = match curve {
        Some(points) => loadgen::run_curve(&options, &points)?
            .into_iter()
            .map(|(connections, report)| (Some(connections), report))
            .collect(),
        None => vec![(None, loadgen::run(&options)?)],
    };
    for (connections, report) in &reports {
        if let Some(connections) = connections {
            telemetry::outln!("--- {connections} connections ---");
        }
        telemetry::outln!("{}", loadgen::format_summary(report));
    }
    if let Some(path) = &options.out {
        telemetry::outln!("report written to {}", path.display());
    }
    for (connections, report) in &reports {
        let point = connections
            .map(|c| format!(" at {c} connections"))
            .unwrap_or_default();
        if report.protocol_errors > 0 {
            return Err(format!(
                "{} protocol errors{point} (first: {})",
                report.protocol_errors,
                report
                    .first_errors
                    .first()
                    .map(String::as_str)
                    .unwrap_or("?")
            ));
        }
        if report.ok == 0 {
            return Err(format!("no request succeeded{point}"));
        }
        if report.trace_mismatches > 0 {
            return Err(format!(
                "{} responses did not echo the request's trace tag{point}",
                report.trace_mismatches
            ));
        }
    }
    Ok(())
}

/// `kdtune route`: parse flags, spawn or attach the shards, and route
/// until a `shutdown` request drains the clients. Blocks.
pub fn route(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if take_flag(&mut args, "--help") {
        telemetry::outln!("{ROUTE_USAGE}");
        return Ok(());
    }
    let mut config = RouterConfig::default();
    config.addr = take_parsed(&mut args, "--addr", config.addr)?;
    config.max_conns = take_parsed(&mut args, "--max-conns", config.max_conns)?;
    config.pending_per_shard = take_parsed(&mut args, "--pending", config.pending_per_shard)?;
    config.drain_ms = take_parsed(&mut args, "--drain-ms", config.drain_ms)?;
    let attach = take_value(&mut args, "--attach")?;
    let shards: usize = take_parsed(&mut args, "--shards", 2)?;
    let workers: usize = take_parsed(&mut args, "--workers", 1)?;
    let queue: usize = take_parsed(&mut args, "--queue", 64)?;
    let cache_mb: usize = take_parsed(&mut args, "--cache-mb", 128)?;
    let store = take_parsed(&mut args, "--store", "renderd_configs.jsonl".to_string())?;
    reject_leftovers(&args, ROUTE_USAGE)?;

    config.shards = match attach {
        Some(list) => ShardMode::Attach(
            list.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect(),
        ),
        None => {
            // Spawn shards through our own binary's `serve` subcommand;
            // the router appends --addr 127.0.0.1:0 and the per-shard
            // --store suffix itself.
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot locate own executable: {e}"))?;
            config.shard_store_base = Some(store);
            ShardMode::Spawn {
                count: shards,
                command: vec![
                    exe.display().to_string(),
                    "serve".into(),
                    "--workers".into(),
                    workers.to_string(),
                    "--queue".into(),
                    queue.to_string(),
                    "--cache-mb".into(),
                    cache_mb.to_string(),
                ],
            }
        }
    };
    let mode = match &config.shards {
        ShardMode::Spawn { count, .. } => format!("{count} spawned shards"),
        ShardMode::Attach(addrs) => format!("{} attached shards", addrs.len()),
    };
    let router = Router::bind(config.clone()).map_err(|e| format!("bind {}: {e}", config.addr))?;
    telemetry::outln!(
        "router listening on {} ({mode}, max {} conns, {} pending/shard)",
        router.local_addr(),
        config.max_conns,
        config.pending_per_shard
    );
    router.run().map_err(|e| format!("router error: {e}"))?;
    telemetry::outln!("router: drained and stopped");
    Ok(())
}

/// `kdtune top`: poll `stats` and repaint a dashboard. Blocks.
pub fn top(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if take_flag(&mut args, "--help") {
        telemetry::outln!("{TOP_USAGE}");
        return Ok(());
    }
    let mut options = TopOptions::default();
    options.addr = take_parsed(&mut args, "--addr", options.addr)?;
    options.interval_ms = take_parsed(&mut args, "--interval-ms", options.interval_ms)?;
    let iterations: u64 = take_parsed(&mut args, "--iterations", 0)?;
    options.iterations = (iterations > 0).then_some(iterations);
    options.clear_screen = !take_flag(&mut args, "--no-clear");
    reject_leftovers(&args, TOP_USAGE)?;
    top::run(&options)
}

/// `kdtune metrics`: one scrape of the Prometheus-style exposition.
pub fn metrics(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if take_flag(&mut args, "--help") {
        telemetry::outln!("{METRICS_USAGE}");
        return Ok(());
    }
    let addr = take_parsed(&mut args, "--addr", "127.0.0.1:7464".to_string())?;
    reject_leftovers(&args, METRICS_USAGE)?;
    let mut client = crate::loadgen::Client::connect(&addr)?;
    let response = client.roundtrip(&JsonValue::object([
        ("id", JsonValue::from(-4)),
        ("cmd", "metrics".into()),
    ]))?;
    let text = response
        .get("result")
        .and_then(|r| r.get("text"))
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("metrics response had no result.text: {response}"))?;
    telemetry::print_or_exit(format_args!("{text}"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing_consumes_pairs_and_rejects_leftovers() {
        let mut args: Vec<String> = ["--requests", "12", "--smoke", "--scenes", "bunny"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(take_flag(&mut args, "--smoke"));
        assert!(!take_flag(&mut args, "--smoke"));
        assert_eq!(take_parsed(&mut args, "--requests", 0usize).unwrap(), 12);
        assert_eq!(
            take_value(&mut args, "--scenes").unwrap().as_deref(),
            Some("bunny")
        );
        assert!(reject_leftovers(&args, "usage").is_ok());
        args.push("stray".into());
        assert!(reject_leftovers(&args, "usage").is_err());
    }

    #[test]
    fn missing_flag_values_error_cleanly() {
        let mut args: Vec<String> = vec!["--addr".into()];
        assert!(take_value(&mut args, "--addr").is_err());
        let mut args: Vec<String> = vec!["--requests".into(), "many".into()];
        assert!(take_parsed(&mut args, "--requests", 0usize).is_err());
    }
}
