//! `kdtune top`: a live terminal dashboard over the `stats` response.
//!
//! Rendering is split from polling so the dashboard text is unit-testable
//! without a running server: [`render_dashboard`] turns one `stats`
//! result into a screenful of text; [`run`] polls a server and repaints.
//! The layout is SLO-oriented: windowed per-endpoint latency quantiles
//! first, then saturation (queue, cache), then per-session convergence,
//! then slow-request exemplars.

use crate::loadgen::Client;
use kdtune_telemetry::json::JsonValue;

/// How `kdtune top` polls and paints.
#[derive(Clone, Debug)]
pub struct TopOptions {
    /// Server address.
    pub addr: String,
    /// Repaint interval in milliseconds.
    pub interval_ms: u64,
    /// Stop after this many frames (`None` runs until the server goes
    /// away); lets CI and tests run a bounded number of repaints.
    pub iterations: Option<u64>,
    /// Clear the terminal between frames (off in tests/CI logs).
    pub clear_screen: bool,
}

impl Default for TopOptions {
    fn default() -> TopOptions {
        TopOptions {
            addr: "127.0.0.1:7464".into(),
            interval_ms: 1000,
            iterations: None,
            clear_screen: true,
        }
    }
}

/// Polls `stats` and repaints until the iteration budget or the server
/// connection runs out. The first failed poll after at least one success
/// ends the loop cleanly (the server likely shut down).
pub fn run(options: &TopOptions) -> Result<(), String> {
    let mut painted = 0u64;
    loop {
        let stats = match fetch_stats(&options.addr) {
            Ok(stats) => stats,
            Err(e) if painted > 0 => {
                kdtune_telemetry::outln!("server gone ({e}); exiting");
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if options.clear_screen {
            // ANSI clear + cursor home; repaint in place like top(1).
            kdtune_telemetry::print_or_exit(format_args!("\x1b[2J\x1b[H"));
        }
        kdtune_telemetry::outln!("{}", render_dashboard(&stats));
        painted += 1;
        if let Some(limit) = options.iterations {
            if painted >= limit {
                return Ok(());
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(
            options.interval_ms.max(50),
        ));
    }
}

/// One `stats` roundtrip on a fresh connection.
pub fn fetch_stats(addr: &str) -> Result<JsonValue, String> {
    let mut client = Client::connect(addr)?;
    let response = client.roundtrip(&JsonValue::object([
        ("id", JsonValue::from(-3)),
        ("cmd", "stats".into()),
    ]))?;
    response
        .get("result")
        .cloned()
        .ok_or_else(|| format!("stats response had no result: {response}"))
}

fn get<'a>(v: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

fn get_u64(v: &JsonValue, path: &[&str]) -> u64 {
    get(v, path).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn get_f64(v: &JsonValue, path: &[&str]) -> f64 {
    get(v, path).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn get_str<'a>(v: &'a JsonValue, path: &[&str]) -> &'a str {
    get(v, path).and_then(JsonValue::as_str).unwrap_or("-")
}

fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1e3)
}

/// Formats one `stats` result as the dashboard screen.
pub fn render_dashboard(stats: &JsonValue) -> String {
    let mut out = String::new();

    let draining = if get(stats, &["shutting_down"]).and_then(JsonValue::as_bool) == Some(true) {
        "  DRAINING"
    } else {
        ""
    };
    out.push_str(&format!(
        "renderd {}  up {:.0}s  workers {}  queue {}/{}{}\n",
        get_str(stats, &["addr"]),
        get_f64(stats, &["uptime_secs"]),
        get_u64(stats, &["workers"]),
        get_u64(stats, &["queue_depth"]),
        get_u64(stats, &["queue_capacity"]),
        draining,
    ));
    out.push_str(&format!(
        "requests {}  ok {}  errors {}  busy {}  ({} renders, {} tune steps, {} queries)\n",
        get_u64(stats, &["requests", "received"]),
        get_u64(stats, &["requests", "ok"]),
        get_u64(stats, &["requests", "errors"]),
        get_u64(stats, &["requests", "busy"]),
        get_u64(stats, &["requests", "renders"]),
        get_u64(stats, &["requests", "tune_steps"]),
        get_u64(stats, &["requests", "queries"]),
    ));
    out.push_str(&format!(
        "cache {} entries  {:.1}/{:.1} MiB  hit rate {:.1}%  ({} hits / {} misses / {} evictions)\n",
        get_u64(stats, &["cache", "entries"]),
        get_u64(stats, &["cache", "bytes"]) as f64 / (1024.0 * 1024.0),
        get_u64(stats, &["cache", "capacity_bytes"]) as f64 / (1024.0 * 1024.0),
        get_f64(stats, &["cache", "hit_rate"]) * 100.0,
        get_u64(stats, &["cache", "hits"]),
        get_u64(stats, &["cache", "misses"]),
        get_u64(stats, &["cache", "evictions"]),
    ));

    // Windowed latency per endpoint, straight from the metrics snapshot.
    if let Some(JsonValue::Object(histograms)) = get(stats, &["metrics", "histograms"]) {
        let mut rows = String::new();
        for cmd in ["render", "tune_step", "query"] {
            let key = format!("renderd_request_us{{cmd=\"{cmd}\"}}");
            let Some(series) = histograms.get(&key) else {
                continue;
            };
            let mut row = format!("  {cmd:<10}");
            let mut any = false;
            for window in ["1s", "10s", "60s"] {
                let count = get_u64(series, &[window, "count"]);
                any |= count > 0;
                if count == 0 {
                    row.push_str(&format!("  {:>18}", "-"));
                } else {
                    row.push_str(&format!(
                        "  {:>18}",
                        format!(
                            "{}/{}/{}",
                            ms(get_u64(series, &[window, "p50_us"])),
                            ms(get_u64(series, &[window, "p95_us"])),
                            ms(get_u64(series, &[window, "p99_us"])),
                        )
                    ));
                }
            }
            row.push_str(&format!(
                "  {:>8} reqs",
                get_u64(series, &["total", "count"])
            ));
            if any || get_u64(series, &["total", "count"]) > 0 {
                rows.push_str(&row);
                rows.push('\n');
            }
        }
        if !rows.is_empty() {
            out.push_str(&format!(
                "\nlatency p50/p95/p99 (ms){:>13}{:>20}{:>20}\n",
                "1s", "10s", "60s"
            ));
            out.push_str(&rows);
        }
    }

    if let Some(JsonValue::Array(detail)) = get(stats, &["sessions", "detail"]) {
        if !detail.is_empty() {
            out.push_str("\nsessions:\n");
            for session in detail {
                if get(session, &["busy"]).and_then(JsonValue::as_bool) == Some(true) {
                    out.push_str(&format!("  {:<36} (busy)\n", get_str(session, &["id"])));
                    continue;
                }
                let warm =
                    if get(session, &["warm_started"]).and_then(JsonValue::as_bool) == Some(true) {
                        " warm"
                    } else {
                        ""
                    };
                let best = match get(session, &["best_cost_ms"]).and_then(JsonValue::as_f64) {
                    Some(cost) => format!("  best {cost:.2} ms"),
                    None => String::new(),
                };
                // Query sessions count gather batches, render sessions
                // count frames; label the column accordingly.
                let work = if get_str(session, &["workload"]) == "query" {
                    format!("queries {:<6}", get_u64(session, &["queries"]))
                } else {
                    format!("renders {:<6}", get_u64(session, &["renders"]))
                };
                out.push_str(&format!(
                    "  {:<44} {:<10} steps {:<5} {} retunes {}{}{}\n",
                    get_str(session, &["id"]),
                    get_str(session, &["phase"]),
                    get_u64(session, &["steps"]),
                    work,
                    get_u64(session, &["retunes"]),
                    best,
                    warm,
                ));
            }
        }
    }

    if let Some(JsonValue::Array(slow)) = get(stats, &["slow"]) {
        if !slow.is_empty() {
            out.push_str("\nslow requests (newest first):\n");
            for exemplar in slow.iter().take(5) {
                let stages = match get(exemplar, &["stages"]) {
                    Some(JsonValue::Object(map)) => map
                        .iter()
                        .map(|(k, v)| {
                            format!(
                                "{} {}",
                                k.strip_suffix("_us").unwrap_or(k),
                                ms(v.as_u64().unwrap_or(0))
                            )
                        })
                        .collect::<Vec<_>>()
                        .join("  "),
                    _ => String::new(),
                };
                let tag = get(exemplar, &["client_trace"])
                    .and_then(JsonValue::as_str)
                    .map(|t| format!("  ({t})"))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "  #{} {} {} ms  [{}]{}\n",
                    get_u64(exemplar, &["trace_id"]),
                    get_str(exemplar, &["cmd"]),
                    ms(get_u64(exemplar, &["total_us"])),
                    stages,
                    tag,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_telemetry::json;

    fn sample_stats() -> JsonValue {
        json::parse(
            r#"{
              "addr":"127.0.0.1:7464","uptime_secs":12.5,"workers":2,
              "queue_depth":1,"queue_capacity":64,"shutting_down":false,
              "requests":{"received":100,"ok":95,"errors":2,"busy":3,"renders":70,"tune_steps":15,"queries":10},
              "cache":{"entries":4,"bytes":1048576,"capacity_bytes":134217728,
                       "hits":60,"misses":20,"evictions":1,"hit_rate":0.75},
              "metrics":{"histograms":{
                "renderd_request_us{cmd=\"render\"}":{
                  "1s":{"count":5,"p50_us":1500,"p95_us":3000,"p99_us":4000},
                  "10s":{"count":50,"p50_us":1600,"p95_us":3100,"p99_us":4100},
                  "60s":{"count":80,"p50_us":1700,"p95_us":3200,"p99_us":4200},
                  "total":{"count":80,"p50_us":1700,"p95_us":3200,"p99_us":4200}},
                "renderd_request_us{cmd=\"query\"}":{
                  "1s":{"count":0},
                  "10s":{"count":8,"p50_us":700,"p95_us":900,"p99_us":1100},
                  "60s":{"count":10,"p50_us":800,"p95_us":1000,"p99_us":1200},
                  "total":{"count":10,"p50_us":800,"p95_us":1000,"p99_us":1200}}}},
              "sessions":{"count":2,"detail":[
                {"id":"bunny@tiny/in_place/64","phase":"searching","converged":false,
                 "steps":40,"renders":80,"retunes":0,"warm_started":true,
                 "best_cost_ms":3.25},
                {"id":"bunny@tiny/in_place/query/photon_gather/b256k8r50",
                 "workload":"query","phase":"converged","converged":true,
                 "steps":60,"queries":10,"retunes":0,"warm_started":false,
                 "best_cost_ms":0.42}]},
              "slow":[{"cmd":"render","trace_id":17,"total_us":512000,
                       "stages":{"queue_us":1000,"build_us":400000,"render_us":110000,"serialize_us":1000},
                       "client_trace":"c2-17"}]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn dashboard_shows_every_section() {
        let text = render_dashboard(&sample_stats());
        assert!(text.contains("renderd 127.0.0.1:7464"), "{text}");
        assert!(text.contains("queue 1/64"), "{text}");
        assert!(text.contains("hit rate 75.0%"), "{text}");
        // Windowed quantiles, in milliseconds.
        assert!(text.contains("1.5/3.0/4.0"), "{text}");
        assert!(text.contains("1.6/3.1/4.1"), "{text}");
        // Per-workload request counters and the query latency row.
        assert!(text.contains("10 queries"), "{text}");
        assert!(text.contains("0.8/1.0/1.2"), "{text}");
        // Session convergence rows: the render session counts frames, the
        // query session counts gather batches.
        assert!(text.contains("bunny@tiny/in_place/64"), "{text}");
        assert!(text.contains("searching"), "{text}");
        assert!(text.contains("warm"), "{text}");
        assert!(text.contains("best 3.25 ms"), "{text}");
        assert!(
            text.contains("bunny@tiny/in_place/query/photon_gather/b256k8r50"),
            "{text}"
        );
        assert!(text.contains("queries 10"), "{text}");
        assert!(text.contains("best 0.42 ms"), "{text}");
        // Slow exemplar with its stage breakdown and client tag.
        assert!(text.contains("#17 render 512.0 ms"), "{text}");
        assert!(text.contains("build 400.0"), "{text}");
        assert!(text.contains("(c2-17)"), "{text}");
    }

    #[test]
    fn dashboard_degrades_gracefully_on_minimal_stats() {
        let minimal = json::parse(r#"{"addr":"x","uptime_secs":0}"#).unwrap();
        let text = render_dashboard(&minimal);
        assert!(text.contains("renderd x"));
        assert!(!text.contains("sessions:"));
        assert!(!text.contains("slow requests"));
    }

    #[test]
    fn draining_flag_is_surfaced() {
        let mut stats = sample_stats();
        if let JsonValue::Object(map) = &mut stats {
            map.insert("shutting_down".into(), true.into());
        }
        assert!(render_dashboard(&stats).contains("DRAINING"));
    }
}
