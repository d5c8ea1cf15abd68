//! Live metrics: a process-wide registry of counters, gauges, and
//! sliding-window histograms, fed by folding the [`Record`] stream.
//!
//! The registry turns the passive telemetry spine into always-on series:
//! [`MetricsRecorder`] is a [`Recorder`] that folds every record into a
//! [`MetricsRegistry`] (and optionally forwards to another sink, so a
//! JSONL trace keeps working unchanged). Counters and gauges are plain
//! atomics; latency series are [`WindowedHistogram`]s — a ring of
//! one-second slots over the log-bucketed [`Histogram`], so p50/p95/p99
//! can be answered over 1s/10s/60s windows *and* over the whole run.
//!
//! Clock discipline: every window bucket is derived from
//! [`crate::now_us`], the same monotonic instant-based clock that stamps
//! records. Wall-clock time is never consulted, so NTP steps or suspend
//! jumps cannot rotate or corrupt a window.
//!
//! Series names follow Prometheus conventions (`snake_case`, `_total`
//! for counters, `_us` for microsecond histograms) and are exported two
//! ways: [`MetricsRegistry::snapshot_json`] for the `stats` protocol
//! response and [`MetricsRegistry::prometheus_text`] for scrape-style
//! text exposition.

use crate::histogram::Histogram;
use crate::json::JsonValue;
use crate::{Record, RecordKind, Recorder, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// One-second slots in the ring; must exceed the largest queryable
/// window ([`WINDOWS`]) so an in-progress second never aliases a slot
/// still inside that window.
const WINDOW_SLOTS: u64 = 64;

/// The windows (seconds, label) exported by snapshots and exposition.
/// `0` means the cumulative all-time histogram.
pub const WINDOWS: [(u64, &str); 4] = [(1, "1s"), (10, "10s"), (60, "60s"), (0, "total")];

/// Quantiles exported per histogram window.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

// ---------------------------------------------------------------------------
// WindowedHistogram
// ---------------------------------------------------------------------------

struct Slot {
    /// Which absolute second (t_us / 1e6) this slot currently holds;
    /// `u64::MAX` marks a never-used slot.
    epoch_sec: u64,
    hist: Histogram,
}

/// A sliding-window histogram: a ring of one-second [`Histogram`] slots
/// plus an all-time cumulative histogram.
///
/// Timestamps are microseconds on the [`crate::now_us`] monotonic clock.
/// A slot is lazily reset when a new second claims it, so recording is
/// O(1) and querying a window merges at most `window` slots.
pub struct WindowedHistogram {
    slots: Vec<Slot>,
    cumulative: Histogram,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedHistogram {
    /// Creates an empty windowed histogram.
    pub fn new() -> WindowedHistogram {
        WindowedHistogram {
            slots: (0..WINDOW_SLOTS)
                .map(|_| Slot {
                    epoch_sec: u64::MAX,
                    hist: Histogram::new(),
                })
                .collect(),
            cumulative: Histogram::new(),
        }
    }

    /// Records `us` at the current [`crate::now_us`] time.
    pub fn record(&mut self, us: u64) {
        self.record_at(crate::now_us(), us);
    }

    /// Records `us` with an explicit timestamp on the [`crate::now_us`]
    /// clock (used by the recorder, which stamps records once at the
    /// instrumentation site, and by tests that pin rotation behavior).
    pub fn record_at(&mut self, t_us: u64, us: u64) {
        let sec = t_us / 1_000_000;
        let slot = &mut self.slots[(sec % WINDOW_SLOTS) as usize];
        if slot.epoch_sec != sec {
            // The ring wrapped (or the slot is fresh): whatever second
            // lived here has aged out of every queryable window.
            slot.hist.reset();
            slot.epoch_sec = sec;
        }
        slot.hist.record_us(us);
        self.cumulative.record_us(us);
    }

    /// Merges the slots covering the last `window_secs` seconds ending
    /// at `now_us` (inclusive of the in-progress second) into one
    /// histogram. `window_secs == 0` returns the cumulative histogram.
    pub fn window(&self, now_us: u64, window_secs: u64) -> Histogram {
        if window_secs == 0 {
            return self.cumulative.clone();
        }
        let window_secs = window_secs.min(WINDOW_SLOTS - 1);
        let now_sec = now_us / 1_000_000;
        let mut merged = Histogram::new();
        let first = now_sec.saturating_sub(window_secs - 1);
        for sec in first..=now_sec {
            let slot = &self.slots[(sec % WINDOW_SLOTS) as usize];
            if slot.epoch_sec == sec {
                merged.merge(&slot.hist);
            }
        }
        merged
    }

    /// The all-time histogram (never reset).
    pub fn cumulative(&self) -> &Histogram {
        &self.cumulative
    }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// A series identity: metric name plus rendered label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    /// Rendered `k="v",k2="v2"` label body, empty for unlabeled series.
    labels: String,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut body = String::new();
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(k);
            body.push_str("=\"");
            for c in v.chars() {
                match c {
                    '"' => body.push_str("\\\""),
                    '\\' => body.push_str("\\\\"),
                    '\n' => body.push_str("\\n"),
                    c => body.push(c),
                }
            }
            body.push('"');
        }
        SeriesKey {
            name: name.to_owned(),
            labels: body,
        }
    }

    /// `name{labels}` with optional name suffix and extra label pairs,
    /// matching Prometheus exposition syntax.
    fn render(&self, suffix: &str, extra: &str) -> String {
        let mut out = String::with_capacity(self.name.len() + self.labels.len() + 16);
        out.push_str(&self.name);
        out.push_str(suffix);
        if !self.labels.is_empty() || !extra.is_empty() {
            out.push('{');
            out.push_str(&self.labels);
            if !self.labels.is_empty() && !extra.is_empty() {
                out.push(',');
            }
            out.push_str(extra);
            out.push('}');
        }
        out
    }
}

/// Process-wide live metrics: atomically updated counters and gauges,
/// plus labeled sliding-window histograms. All methods take `&self`; one
/// instance serves every thread.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<SeriesKey, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<SeriesKey, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<SeriesKey, Arc<Mutex<WindowedHistogram>>>>,
}

fn get_or_insert<V: Clone>(
    map: &RwLock<BTreeMap<SeriesKey, V>>,
    key: SeriesKey,
    make: impl FnOnce() -> V,
) -> V {
    if let Some(v) = map.read().get(&key) {
        return v.clone();
    }
    map.write().entry(key).or_insert_with(make).clone()
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Handle for the counter series `name{labels}`, creating it at 0.
    /// Handles may be cached by hot paths to skip the map lookup.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        get_or_insert(&self.counters, SeriesKey::new(name, labels), || {
            Arc::new(AtomicU64::new(0))
        })
    }

    /// Adds `n` to the counter series `name{labels}`.
    pub fn add(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        self.counter(name, labels).fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter series (0 if it was never touched).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counter(name, labels).load(Ordering::Relaxed)
    }

    /// Handle for the gauge series `name{labels}`, creating it at 0.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicI64> {
        get_or_insert(&self.gauges, SeriesKey::new(name, labels), || {
            Arc::new(AtomicI64::new(0))
        })
    }

    /// Sets the gauge series `name{labels}` to `v`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: i64) {
        self.gauge(name, labels).store(v, Ordering::Relaxed);
    }

    /// Handle for the windowed-histogram series `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Mutex<WindowedHistogram>> {
        get_or_insert(&self.histograms, SeriesKey::new(name, labels), || {
            Arc::new(Mutex::new(WindowedHistogram::new()))
        })
    }

    /// Records `us` into histogram `name{labels}` at the current time.
    pub fn observe_us(&self, name: &str, labels: &[(&str, &str)], us: u64) {
        self.observe_at(name, labels, crate::now_us(), us);
    }

    /// Records `us` into histogram `name{labels}` at an explicit
    /// [`crate::now_us`]-clock timestamp.
    pub fn observe_at(&self, name: &str, labels: &[(&str, &str)], t_us: u64, us: u64) {
        self.histogram(name, labels).lock().record_at(t_us, us);
    }

    // -- folding the record stream ------------------------------------------

    /// Folds one telemetry record into live series. Counters become
    /// `<name>_total`, spans become `<name>_us` histograms, and the
    /// well-known events (server.request, server.cache, tuner.*,
    /// workflow.frame, …) get dedicated series with bounded label sets;
    /// any other event is counted under `telemetry_events_total{name=…}`.
    pub fn fold(&self, r: &Record) {
        match r.kind {
            RecordKind::Counter => {
                let n = r.delta.unwrap_or(0).max(0) as u64;
                self.add(&format!("{}_total", sanitize(r.name)), &[], n);
            }
            RecordKind::Span => {
                let us = r.duration_us.unwrap_or(0);
                self.observe_at(&format!("{}_us", sanitize(r.name)), &[], r.t_us, us);
            }
            RecordKind::Event => self.fold_event(r),
        }
    }

    fn fold_event(&self, r: &Record) {
        match r.name {
            "server.request" => {
                let cmd = fstr(r, "cmd").unwrap_or("?");
                let outcome = match fstr(r, "code") {
                    Some("-") | None => "ok",
                    Some(code) => code,
                };
                self.add(
                    "renderd_requests_total",
                    &[("cmd", cmd), ("code", outcome)],
                    1,
                );
                if outcome == "busy" {
                    self.add("renderd_busy_total", &[], 1);
                    // A rejected request never ran; its zero duration
                    // would only distort the latency windows.
                    return;
                }
                self.observe_at(
                    "renderd_request_us",
                    &[("cmd", cmd)],
                    r.t_us,
                    fu64(r, "duration_us").unwrap_or(0),
                );
                if let Some(q) = fu64(r, "queued_us") {
                    self.observe_at("renderd_queue_wait_us", &[("cmd", cmd)], r.t_us, q);
                }
                for (field, stage) in [
                    ("build_us", "build"),
                    ("render_us", "render"),
                    ("serialize_us", "serialize"),
                    ("tune_us", "tune"),
                    ("query_us", "query"),
                ] {
                    if let Some(us) = fu64(r, field) {
                        self.observe_at("renderd_stage_us", &[("stage", stage)], r.t_us, us);
                    }
                }
                // The point-query batch time also gets a dedicated
                // unlabeled series, so query latency is scrapeable
                // without a stage-label join.
                if cmd == "query" {
                    if let Some(us) = fu64(r, "query_us") {
                        self.observe_at("renderd_query_us", &[], r.t_us, us);
                    }
                }
            }
            "server.cache" => {
                let op = fstr(r, "op").unwrap_or("?");
                self.add("renderd_cache_ops_total", &[("op", op)], 1);
                if let Some(bytes) = fu64(r, "bytes") {
                    match op {
                        "miss" => self.add("renderd_cache_inserted_bytes_total", &[], bytes),
                        "evict" => self.add("renderd_cache_evicted_bytes_total", &[], bytes),
                        _ => {}
                    }
                }
            }
            "server.session" => match fstr(r, "op") {
                Some("create") => {
                    self.add("renderd_sessions_created_total", &[], 1);
                    if fbool(r, "warm_start") == Some(true) {
                        self.add("renderd_session_warm_starts_total", &[], 1);
                    }
                }
                Some("tune") => {
                    let reason = fstr(r, "reason").unwrap_or("?");
                    self.add("renderd_tune_calls_total", &[("reason", reason)], 1);
                }
                _ => {}
            },
            "server.trace" => {
                let cmd = fstr(r, "cmd").unwrap_or("?");
                self.add("renderd_slow_requests_total", &[("cmd", cmd)], 1);
            }
            "pipeline.run" => {
                let reason = fstr(r, "reason").unwrap_or("?");
                self.add("pipeline_runs_total", &[("reason", reason)], 1);
            }
            "tuner.measurement" => {
                let phase = fstr(r, "phase").unwrap_or("?");
                self.add("tuner_measurements_total", &[("phase", phase)], 1);
                if let Some(cost) = ff64(r, "cost") {
                    self.observe_at("tuner_cost_us", &[], r.t_us, secs_to_us(cost));
                }
            }
            "tuner.retune" => self.add("tuner_retunes_total", &[], 1),
            "tuner.phase" => {
                let to = fstr(r, "to").unwrap_or("?");
                self.add("tuner_phase_transitions_total", &[("to", to)], 1);
            }
            "workflow.frame" => {
                let algo = fstr(r, "algorithm").unwrap_or("?");
                self.add("frames_total", &[("algorithm", algo)], 1);
                for (field, series) in [
                    ("build_secs", "frame_build_us"),
                    ("render_secs", "frame_render_us"),
                    ("total_secs", "frame_total_us"),
                ] {
                    if let Some(secs) = ff64(r, field) {
                        self.observe_at(series, &[], r.t_us, secs_to_us(secs));
                    }
                }
                let rays =
                    fu64(r, "primary_rays").unwrap_or(0) + fu64(r, "shadow_rays").unwrap_or(0);
                self.add("frame_rays_total", &[], rays);
            }
            "kdtree.build.level" => {
                self.add("kdtree_build_level_events_total", &[], 1);
                if let Some(nodes) = fu64(r, "nodes") {
                    self.add("kdtree_build_level_nodes_total", &[], nodes);
                }
            }
            other => {
                self.add("telemetry_events_total", &[("name", other)], 1);
            }
        }
    }

    // -- export --------------------------------------------------------------

    /// Snapshot of every series as JSON, with histogram quantiles
    /// computed over each of [`WINDOWS`] at `now_us`.
    pub fn snapshot_json(&self, now_us: u64) -> JsonValue {
        let counters: BTreeMap<String, JsonValue> = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.render("", ""), v.load(Ordering::Relaxed).into()))
            .collect();
        let gauges: BTreeMap<String, JsonValue> = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.render("", ""), v.load(Ordering::Relaxed).into()))
            .collect();
        let histograms: BTreeMap<String, JsonValue> = self
            .histograms
            .read()
            .iter()
            .map(|(k, v)| {
                let wh = v.lock();
                let windows: BTreeMap<String, JsonValue> = WINDOWS
                    .iter()
                    .map(|&(secs, label)| {
                        let h = wh.window(now_us, secs);
                        (
                            label.to_owned(),
                            JsonValue::object([
                                ("count", JsonValue::from(h.count())),
                                ("sum_us", h.sum_us().into()),
                                ("mean_us", h.mean_us().into()),
                                ("min_us", h.min_us().into()),
                                ("p50_us", h.percentile_us(0.50).into()),
                                ("p95_us", h.percentile_us(0.95).into()),
                                ("p99_us", h.percentile_us(0.99).into()),
                                ("max_us", h.max_us().into()),
                            ]),
                        )
                    })
                    .collect();
                (k.render("", ""), JsonValue::Object(windows))
            })
            .collect();
        JsonValue::object([
            ("counters", JsonValue::Object(counters)),
            ("gauges", JsonValue::Object(gauges)),
            ("histograms", JsonValue::Object(histograms)),
        ])
    }

    /// Snapshot of every series in a *mergeable* form: counters and
    /// gauges as raw values, histograms as bucket-level
    /// [`Histogram::to_json`] objects per window. Quantiles are not
    /// pre-computed — a downstream aggregator ([`MergedMetrics`]) can sum
    /// counters and [`Histogram::merge`] bucket arrays losslessly, which
    /// pre-digested p50/p95/p99 values cannot offer. This is what a shard
    /// returns for `{"cmd":"metrics","format":"json"}`.
    pub fn mergeable_json(&self, now_us: u64) -> JsonValue {
        let counters: BTreeMap<String, JsonValue> = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.render("", ""), v.load(Ordering::Relaxed).into()))
            .collect();
        let gauges: BTreeMap<String, JsonValue> = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.render("", ""), v.load(Ordering::Relaxed).into()))
            .collect();
        let histograms: BTreeMap<String, JsonValue> = self
            .histograms
            .read()
            .iter()
            .map(|(k, v)| {
                let wh = v.lock();
                let windows: BTreeMap<String, JsonValue> = WINDOWS
                    .iter()
                    .map(|&(secs, label)| (label.to_owned(), wh.window(now_us, secs).to_json()))
                    .collect();
                (k.render("", ""), JsonValue::Object(windows))
            })
            .collect();
        JsonValue::object([
            ("counters", JsonValue::Object(counters)),
            ("gauges", JsonValue::Object(gauges)),
            ("histograms", JsonValue::Object(histograms)),
        ])
    }

    /// Prometheus-style text exposition: `# TYPE` comments, counters and
    /// gauges as single samples, histograms as per-window quantile
    /// summaries with `_count`/`_sum` companions. Output is sorted and
    /// deterministic for a given registry state.
    pub fn prometheus_text(&self, now_us: u64) -> String {
        let mut out = String::with_capacity(4096);
        let mut last_type_header = String::new();
        let mut type_header = |out: &mut String, name: &str, kind: &str| {
            if last_type_header != name {
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
                last_type_header = name.to_owned();
            }
        };
        for (key, value) in self.counters.read().iter() {
            type_header(&mut out, &key.name, "counter");
            out.push_str(&key.render("", ""));
            out.push(' ');
            out.push_str(&value.load(Ordering::Relaxed).to_string());
            out.push('\n');
        }
        for (key, value) in self.gauges.read().iter() {
            type_header(&mut out, &key.name, "gauge");
            out.push_str(&key.render("", ""));
            out.push(' ');
            out.push_str(&value.load(Ordering::Relaxed).to_string());
            out.push('\n');
        }
        for (key, wh) in self.histograms.read().iter() {
            type_header(&mut out, &key.name, "summary");
            let wh = wh.lock();
            for &(secs, label) in &WINDOWS {
                let h = wh.window(now_us, secs);
                let window_label = format!("window=\"{label}\"");
                for &(q, qname) in &QUANTILES {
                    out.push_str(&key.render("", &format!("{window_label},quantile=\"{qname}\"")));
                    out.push(' ');
                    out.push_str(&h.percentile_us(q).to_string());
                    out.push('\n');
                }
                out.push_str(&key.render("_count", &window_label));
                out.push(' ');
                out.push_str(&h.count().to_string());
                out.push('\n');
                out.push_str(&key.render("_sum", &window_label));
                out.push(' ');
                out.push_str(&h.sum_us().to_string());
                out.push('\n');
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// MergedMetrics
// ---------------------------------------------------------------------------

/// Splits a rendered series key `name{body}` into `(name, body)`;
/// `body` is empty for unlabeled series.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(pos) => (&key[..pos], key[pos + 1..].trim_end_matches('}')),
        None => (key, ""),
    }
}

/// Re-renders a split key with a name suffix and an extra label clause
/// appended, matching [`SeriesKey::render`] semantics.
fn render_key(name: &str, body: &str, suffix: &str, extra: &str) -> String {
    let mut out = String::with_capacity(name.len() + body.len() + extra.len() + 8);
    out.push_str(name);
    out.push_str(suffix);
    if !body.is_empty() || !extra.is_empty() {
        out.push('{');
        out.push_str(body);
        if !body.is_empty() && !extra.is_empty() {
            out.push(',');
        }
        out.push_str(extra);
        out.push('}');
    }
    out
}

/// Cross-process metrics aggregator: folds the [`mergeable_json`]
/// snapshots of N shard registries into one coherent view — counters and
/// gauges summed, histograms merged bucket-by-bucket (exact, because
/// every process shares the fixed log-bucket grid) — while keeping each
/// shard's series reachable under an extra `shard="<label>"` label.
///
/// This is the router's merge step for fanned-out `stats`/`metrics`
/// requests; it deliberately mirrors [`MetricsRegistry`]'s export
/// surface ([`MergedMetrics::snapshot_json`],
/// [`MergedMetrics::prometheus_text`]) so clients cannot tell a router
/// from a single shard by response shape.
///
/// [`mergeable_json`]: MetricsRegistry::mergeable_json
#[derive(Default)]
pub struct MergedMetrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    /// key → window label → merged histogram.
    histograms: BTreeMap<String, BTreeMap<String, Histogram>>,
    shards: usize,
}

impl MergedMetrics {
    /// Creates an empty aggregate.
    pub fn new() -> MergedMetrics {
        MergedMetrics::default()
    }

    /// Number of snapshots merged so far.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Folds one shard's [`MetricsRegistry::mergeable_json`] snapshot
    /// into the aggregate. When `shard_label` is given, every series is
    /// *also* kept under a `shard="<label>"`-labeled copy for per-shard
    /// drill-down. Returns `false` (leaving previously merged shards
    /// intact) if the snapshot does not have the expected shape.
    pub fn add_snapshot(&mut self, shard_label: Option<&str>, snap: &JsonValue) -> bool {
        let (Some(JsonValue::Object(counters)), Some(JsonValue::Object(gauges))) =
            (snap.get("counters"), snap.get("gauges"))
        else {
            return false;
        };
        let Some(JsonValue::Object(histograms)) = snap.get("histograms") else {
            return false;
        };
        let extra = shard_label.map(|l| {
            let escaped: String = l
                .chars()
                .map(|c| if c == '"' || c == '\\' { '_' } else { c })
                .collect();
            format!("shard=\"{escaped}\"")
        });
        for (key, v) in counters {
            let Some(n) = v.as_u64().or_else(|| v.as_f64().map(|f| f.max(0.0) as u64)) else {
                continue;
            };
            // Shard-supplied values saturate rather than overflow.
            let sum = self.counters.entry(key.clone()).or_default();
            *sum = sum.saturating_add(n);
            if let Some(extra) = &extra {
                let (name, body) = split_key(key);
                let sum = self
                    .counters
                    .entry(render_key(name, body, "", extra))
                    .or_default();
                *sum = sum.saturating_add(n);
            }
        }
        for (key, v) in gauges {
            let Some(n) = v.as_i64() else { continue };
            let sum = self.gauges.entry(key.clone()).or_default();
            *sum = sum.saturating_add(n);
            if let Some(extra) = &extra {
                let (name, body) = split_key(key);
                let sum = self
                    .gauges
                    .entry(render_key(name, body, "", extra))
                    .or_default();
                *sum = sum.saturating_add(n);
            }
        }
        for (key, windows) in histograms {
            let JsonValue::Object(windows) = windows else {
                return false;
            };
            for (window, hist_json) in windows {
                let Some(h) = Histogram::from_json(hist_json) else {
                    return false;
                };
                self.histograms
                    .entry(key.clone())
                    .or_default()
                    .entry(window.clone())
                    .or_default()
                    .merge(&h);
                if let Some(extra) = &extra {
                    let (name, body) = split_key(key);
                    self.histograms
                        .entry(render_key(name, body, "", extra))
                        .or_default()
                        .entry(window.clone())
                        .or_default()
                        .merge(&h);
                }
            }
        }
        self.shards += 1;
        true
    }

    /// Snapshot of the merged series in the same shape as
    /// [`MetricsRegistry::snapshot_json`] (quantiles computed over the
    /// merged bucket arrays).
    pub fn snapshot_json(&self) -> JsonValue {
        let counters: BTreeMap<String, JsonValue> = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.into()))
            .collect();
        let gauges: BTreeMap<String, JsonValue> = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), v.into()))
            .collect();
        let histograms: BTreeMap<String, JsonValue> = self
            .histograms
            .iter()
            .map(|(k, windows)| {
                let windows: BTreeMap<String, JsonValue> = windows
                    .iter()
                    .map(|(label, h)| {
                        (
                            label.clone(),
                            JsonValue::object([
                                ("count", JsonValue::from(h.count())),
                                ("sum_us", h.sum_us().into()),
                                ("mean_us", h.mean_us().into()),
                                ("min_us", h.min_us().into()),
                                ("p50_us", h.percentile_us(0.50).into()),
                                ("p95_us", h.percentile_us(0.95).into()),
                                ("p99_us", h.percentile_us(0.99).into()),
                                ("max_us", h.max_us().into()),
                            ]),
                        )
                    })
                    .collect();
                (k.clone(), JsonValue::Object(windows))
            })
            .collect();
        JsonValue::object([
            ("counters", JsonValue::Object(counters)),
            ("gauges", JsonValue::Object(gauges)),
            ("histograms", JsonValue::Object(histograms)),
        ])
    }

    /// Prometheus text exposition of the merged series, same dialect as
    /// [`MetricsRegistry::prometheus_text`]. Per-shard series appear as
    /// ordinary labeled samples (`…,shard="0"`) next to the aggregates.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut last_type_header = String::new();
        let mut type_header = |out: &mut String, name: &str, kind: &str| {
            if last_type_header != name {
                out.push_str("# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
                last_type_header = name.to_owned();
            }
        };
        for (key, value) in &self.counters {
            let (name, _) = split_key(key);
            type_header(&mut out, name, "counter");
            out.push_str(key);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        for (key, value) in &self.gauges {
            let (name, _) = split_key(key);
            type_header(&mut out, name, "gauge");
            out.push_str(key);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        for (key, windows) in &self.histograms {
            let (name, body) = split_key(key);
            type_header(&mut out, name, "summary");
            for (label, h) in windows {
                let window_label = format!("window=\"{label}\"");
                for &(q, qname) in &QUANTILES {
                    out.push_str(&render_key(
                        name,
                        body,
                        "",
                        &format!("{window_label},quantile=\"{qname}\""),
                    ));
                    out.push(' ');
                    out.push_str(&h.percentile_us(q).to_string());
                    out.push('\n');
                }
                out.push_str(&render_key(name, body, "_count", &window_label));
                out.push(' ');
                out.push_str(&h.count().to_string());
                out.push('\n');
                out.push_str(&render_key(name, body, "_sum", &window_label));
                out.push(' ');
                out.push_str(&h.sum_us().to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// `a.b-c` → `a_b_c` for Prometheus-compatible series names.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn secs_to_us(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e6).round() as u64
    } else {
        0
    }
}

fn field<'a>(r: &'a Record, key: &str) -> Option<&'a Value> {
    r.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn fstr<'a>(r: &'a Record, key: &str) -> Option<&'a str> {
    match field(r, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn fu64(r: &Record, key: &str) -> Option<u64> {
    match field(r, key)? {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn ff64(r: &Record, key: &str) -> Option<f64> {
    match field(r, key)? {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn fbool(r: &Record, key: &str) -> Option<bool> {
    match field(r, key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// MetricsRecorder
// ---------------------------------------------------------------------------

/// A [`Recorder`] that folds every record into a [`MetricsRegistry`] and
/// optionally forwards it to another recorder (preserving e.g. a JSONL
/// trace installed before the registry).
pub struct MetricsRecorder {
    registry: Arc<MetricsRegistry>,
    next: Option<Arc<dyn Recorder>>,
}

impl MetricsRecorder {
    /// Creates a recorder feeding `registry`, forwarding nothing.
    pub fn new(registry: Arc<MetricsRegistry>) -> MetricsRecorder {
        MetricsRecorder {
            registry,
            next: None,
        }
    }

    /// Creates a recorder feeding `registry` that also forwards every
    /// record to `next` (tee semantics).
    pub fn with_next(registry: Arc<MetricsRegistry>, next: Arc<dyn Recorder>) -> MetricsRecorder {
        MetricsRecorder {
            registry,
            next: Some(next),
        }
    }

    /// The registry this recorder feeds.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

impl Recorder for MetricsRecorder {
    fn record(&self, record: Record) {
        self.registry.fold(&record);
        if let Some(next) = &self.next {
            next.record(record);
        }
    }

    fn flush(&self) {
        if let Some(next) = &self.next {
            next.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_record(name: &'static str, fields: Vec<(&'static str, Value)>) -> Record {
        Record {
            kind: RecordKind::Event,
            name,
            t_us: 0,
            duration_us: None,
            delta: None,
            fields,
        }
    }

    const SEC: u64 = 1_000_000;

    #[test]
    fn window_rotation_at_the_second_boundary() {
        let mut wh = WindowedHistogram::new();
        // One sample late in second 1.
        wh.record_at(SEC + 900_000, 100);
        // Inside second 1, the 1s window sees it.
        assert_eq!(wh.window(SEC + 950_000, 1).count(), 1);
        // The instant second 2 starts, the 1s window is empty again —
        // rotation happens exactly at the boundary, not mid-second.
        assert_eq!(wh.window(2 * SEC, 1).count(), 0);
        assert_eq!(wh.window(2 * SEC - 1, 1).count(), 1);
        // Wider windows still cover it.
        assert_eq!(wh.window(2 * SEC, 10).count(), 1);
        assert_eq!(wh.window(10 * SEC, 10).count(), 1);
        assert_eq!(wh.window(11 * SEC, 10).count(), 0);
        assert_eq!(wh.window(11 * SEC, 60).count(), 1);
        // The cumulative histogram never forgets.
        assert_eq!(wh.window(1000 * SEC, 0).count(), 1);
    }

    #[test]
    fn ring_wrap_reclaims_stale_slots() {
        let mut wh = WindowedHistogram::new();
        wh.record_at(3 * SEC, 10);
        // WINDOW_SLOTS seconds later the same slot index comes around;
        // recording must reset the stale slot, not mix epochs.
        let later = (3 + WINDOW_SLOTS) * SEC;
        wh.record_at(later, 20);
        let w = wh.window(later, 1);
        assert_eq!(w.count(), 1);
        assert_eq!(w.min_us(), 20);
        // A slot whose epoch aged out contributes nothing even unwrapped.
        assert_eq!(wh.window(later, 60).count(), 1);
        assert_eq!(wh.cumulative().count(), 2);
    }

    #[test]
    fn stale_slot_is_ignored_by_queries_without_recording() {
        let mut wh = WindowedHistogram::new();
        wh.record_at(5 * SEC, 10);
        // Query a much later time without recording anything: the old
        // slot's epoch no longer matches any second in the window.
        let much_later = (5 + 2 * WINDOW_SLOTS) * SEC;
        assert_eq!(wh.window(much_later, 60).count(), 0);
        assert_eq!(wh.cumulative().count(), 1);
    }

    #[test]
    fn windows_merge_across_slots() {
        let mut wh = WindowedHistogram::new();
        for sec in 0..10u64 {
            wh.record_at(sec * SEC + 1, 100 * (sec + 1));
        }
        let now = 9 * SEC + 2;
        assert_eq!(wh.window(now, 1).count(), 1);
        assert_eq!(wh.window(now, 10).count(), 10);
        let w = wh.window(now, 10);
        assert_eq!(w.min_us(), 100);
        assert_eq!(w.max_us(), 1000);
    }

    #[test]
    fn counters_gauges_and_keys_render_prometheus_style() {
        let reg = MetricsRegistry::new();
        reg.add(
            "renderd_requests_total",
            &[("cmd", "render"), ("code", "ok")],
            2,
        );
        reg.add(
            "renderd_requests_total",
            &[("cmd", "render"), ("code", "ok")],
            1,
        );
        reg.gauge_set("renderd_queue_depth", &[], 5);
        reg.observe_at("renderd_request_us", &[("cmd", "render")], SEC, 1500);
        let text = reg.prometheus_text(SEC);
        assert!(text.contains("# TYPE renderd_requests_total counter"));
        assert!(text.contains("renderd_requests_total{cmd=\"render\",code=\"ok\"} 3"));
        assert!(text.contains("# TYPE renderd_queue_depth gauge"));
        assert!(text.contains("renderd_queue_depth 5"));
        assert!(text.contains("# TYPE renderd_request_us summary"));
        assert!(
            text.contains("renderd_request_us{cmd=\"render\",window=\"1s\",quantile=\"0.5\"} 1500")
        );
        assert!(text.contains("renderd_request_us_count{cmd=\"render\",window=\"1s\"} 1"));
        assert!(text.contains("renderd_request_us_sum{cmd=\"render\",window=\"total\"} 1500"));
        // One TYPE header per metric name, not per series.
        assert_eq!(text.matches("# TYPE renderd_requests_total").count(), 1);
    }

    #[test]
    fn label_values_escape_quotes_and_backslashes() {
        let key = SeriesKey::new("m", &[("k", "a\"b\\c")]);
        assert_eq!(key.render("", ""), "m{k=\"a\\\"b\\\\c\"}");
    }

    #[test]
    fn snapshot_json_carries_all_windows() {
        let reg = MetricsRegistry::new();
        reg.add("c_total", &[], 7);
        reg.observe_at("h_us", &[], 30 * SEC, 250);
        let snap = reg.snapshot_json(30 * SEC + 1);
        assert_eq!(
            snap.get("counters")
                .unwrap()
                .get("c_total")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        let h = snap.get("histograms").unwrap().get("h_us").unwrap();
        for w in ["1s", "10s", "60s", "total"] {
            assert_eq!(
                h.get(w).unwrap().get("count").unwrap().as_u64(),
                Some(1),
                "window {w}"
            );
            assert_eq!(h.get(w).unwrap().get("p95_us").unwrap().as_u64(), Some(250));
        }
    }

    #[test]
    fn fold_maps_counters_spans_and_request_events() {
        let reg = MetricsRegistry::new();
        reg.fold(&Record {
            kind: RecordKind::Counter,
            name: "kdtree.build.tasks",
            t_us: 1,
            duration_us: None,
            delta: Some(4),
            fields: vec![],
        });
        reg.fold(&Record {
            kind: RecordKind::Span,
            name: "kdtree.build",
            t_us: SEC,
            duration_us: Some(2000),
            delta: None,
            fields: vec![],
        });
        reg.fold(&event_record(
            "server.request",
            vec![
                ("cmd", "render".into()),
                ("ok", true.into()),
                ("code", "-".into()),
                ("duration_us", 1234u64.into()),
                ("queued_us", 55u64.into()),
                ("build_us", 900u64.into()),
                ("render_us", 300u64.into()),
                ("serialize_us", 10u64.into()),
            ],
        ));
        reg.fold(&event_record(
            "server.request",
            vec![("cmd", "render".into()), ("code", "busy".into())],
        ));
        assert_eq!(reg.counter_value("kdtree_build_tasks_total", &[]), 4);
        assert_eq!(
            reg.counter_value(
                "renderd_requests_total",
                &[("cmd", "render"), ("code", "ok")]
            ),
            1
        );
        assert_eq!(
            reg.counter_value(
                "renderd_requests_total",
                &[("cmd", "render"), ("code", "busy")]
            ),
            1
        );
        assert_eq!(reg.counter_value("renderd_busy_total", &[]), 1);
        let h = reg.histogram("renderd_request_us", &[("cmd", "render")]);
        // The busy rejection must not pollute the latency series.
        assert_eq!(h.lock().cumulative().count(), 1);
        assert_eq!(h.lock().cumulative().sum_us(), 1234);
        let stages = reg.histogram("renderd_stage_us", &[("stage", "build")]);
        assert_eq!(stages.lock().cumulative().sum_us(), 900);
        let span = reg.histogram("kdtree_build_us", &[]);
        assert_eq!(span.lock().cumulative().sum_us(), 2000);
    }

    #[test]
    fn fold_gives_query_requests_a_dedicated_latency_series() {
        let reg = MetricsRegistry::new();
        reg.fold(&event_record(
            "server.request",
            vec![
                ("cmd", "query".into()),
                ("ok", true.into()),
                ("code", "-".into()),
                ("duration_us", 800u64.into()),
                ("build_us", 500u64.into()),
                ("query_us", 250u64.into()),
            ],
        ));
        // A render request with no query stage must not touch the series.
        reg.fold(&event_record(
            "server.request",
            vec![
                ("cmd", "render".into()),
                ("code", "-".into()),
                ("duration_us", 100u64.into()),
            ],
        ));
        assert_eq!(
            reg.counter_value(
                "renderd_requests_total",
                &[("cmd", "query"), ("code", "ok")]
            ),
            1
        );
        let q = reg.histogram("renderd_query_us", &[]);
        assert_eq!(q.lock().cumulative().count(), 1);
        assert_eq!(q.lock().cumulative().sum_us(), 250);
        let stage = reg.histogram("renderd_stage_us", &[("stage", "query")]);
        assert_eq!(stage.lock().cumulative().sum_us(), 250);
    }

    #[test]
    fn fold_maps_tuner_frame_and_cache_events() {
        let reg = MetricsRegistry::new();
        reg.fold(&event_record(
            "server.cache",
            vec![("op", "miss".into()), ("bytes", 1000u64.into())],
        ));
        reg.fold(&event_record(
            "server.cache",
            vec![("op", "hit".into()), ("key", "k".into())],
        ));
        reg.fold(&event_record(
            "server.session",
            vec![("op", "create".into()), ("warm_start", true.into())],
        ));
        reg.fold(&event_record(
            "server.session",
            vec![("op", "tune".into()), ("reason", "converged".into())],
        ));
        reg.fold(&event_record(
            "tuner.measurement",
            vec![("phase", "searching".into()), ("cost", 0.002f64.into())],
        ));
        reg.fold(&event_record("tuner.retune", vec![]));
        reg.fold(&event_record(
            "tuner.phase",
            vec![("from", "seeding".into()), ("to", "searching".into())],
        ));
        reg.fold(&event_record(
            "workflow.frame",
            vec![
                ("algorithm", "in_place".into()),
                ("build_secs", 0.001f64.into()),
                ("render_secs", 0.003f64.into()),
                ("total_secs", 0.004f64.into()),
                ("primary_rays", 100u64.into()),
                ("shadow_rays", 50u64.into()),
            ],
        ));
        reg.fold(&event_record(
            "pipeline.run",
            vec![("reason", "frame_budget".into())],
        ));
        reg.fold(&event_record("something.else", vec![]));
        assert_eq!(
            reg.counter_value("renderd_cache_ops_total", &[("op", "miss")]),
            1
        );
        assert_eq!(
            reg.counter_value("renderd_cache_ops_total", &[("op", "hit")]),
            1
        );
        assert_eq!(
            reg.counter_value("renderd_cache_inserted_bytes_total", &[]),
            1000
        );
        assert_eq!(reg.counter_value("renderd_sessions_created_total", &[]), 1);
        assert_eq!(
            reg.counter_value("renderd_session_warm_starts_total", &[]),
            1
        );
        assert_eq!(
            reg.counter_value("renderd_tune_calls_total", &[("reason", "converged")]),
            1
        );
        assert_eq!(
            reg.counter_value("tuner_measurements_total", &[("phase", "searching")]),
            1
        );
        assert_eq!(reg.counter_value("tuner_retunes_total", &[]), 1);
        assert_eq!(
            reg.counter_value("tuner_phase_transitions_total", &[("to", "searching")]),
            1
        );
        assert_eq!(
            reg.counter_value("frames_total", &[("algorithm", "in_place")]),
            1
        );
        assert_eq!(reg.counter_value("frame_rays_total", &[]), 150);
        assert_eq!(
            reg.counter_value("pipeline_runs_total", &[("reason", "frame_budget")]),
            1
        );
        assert_eq!(
            reg.counter_value("telemetry_events_total", &[("name", "something.else")]),
            1
        );
        let cost = reg.histogram("tuner_cost_us", &[]);
        assert_eq!(cost.lock().cumulative().sum_us(), 2000);
        let frame = reg.histogram("frame_total_us", &[]);
        assert_eq!(frame.lock().cumulative().sum_us(), 4000);
    }

    #[test]
    fn mergeable_json_round_trips_through_merged_metrics() {
        // Two "shards" fold disjoint traffic; merging their mergeable
        // snapshots must equal folding everything into one registry.
        let shard0 = MetricsRegistry::new();
        let shard1 = MetricsRegistry::new();
        let combined = MetricsRegistry::new();
        for (reg, cmd_us) in [(&shard0, 100u64), (&shard1, 900u64)] {
            for i in 0..5u64 {
                reg.add(
                    "renderd_requests_total",
                    &[("cmd", "render"), ("code", "ok")],
                    1,
                );
                combined.add(
                    "renderd_requests_total",
                    &[("cmd", "render"), ("code", "ok")],
                    1,
                );
                reg.observe_at("renderd_request_us", &[("cmd", "render")], SEC, cmd_us + i);
                combined.observe_at("renderd_request_us", &[("cmd", "render")], SEC, cmd_us + i);
            }
        }
        shard0.gauge_set("renderd_connections", &[], 3);
        shard1.gauge_set("renderd_connections", &[], 4);

        let mut merged = MergedMetrics::new();
        assert!(merged.add_snapshot(Some("0"), &shard0.mergeable_json(SEC)));
        assert!(merged.add_snapshot(Some("1"), &shard1.mergeable_json(SEC)));
        assert_eq!(merged.shard_count(), 2);

        let snap = merged.snapshot_json();
        let counters = snap.get("counters").unwrap();
        assert_eq!(
            counters
                .get("renderd_requests_total{cmd=\"render\",code=\"ok\"}")
                .unwrap()
                .as_u64(),
            Some(10)
        );
        assert_eq!(
            counters
                .get("renderd_requests_total{cmd=\"render\",code=\"ok\",shard=\"1\"}")
                .unwrap()
                .as_u64(),
            Some(5)
        );
        assert_eq!(
            snap.get("gauges")
                .unwrap()
                .get("renderd_connections")
                .unwrap()
                .as_i64(),
            Some(7)
        );

        // Merged histogram quantiles equal those of the combined registry
        // (bucket-level merge is lossless on the shared grid).
        let combined_snap = combined.snapshot_json(SEC + 1);
        let merged_hist = snap
            .get("histograms")
            .unwrap()
            .get("renderd_request_us{cmd=\"render\"}")
            .unwrap();
        let combined_hist = combined_snap
            .get("histograms")
            .unwrap()
            .get("renderd_request_us{cmd=\"render\"}")
            .unwrap();
        for field in ["count", "sum_us", "min_us", "max_us", "p50_us", "p99_us"] {
            assert_eq!(
                merged_hist
                    .get("total")
                    .unwrap()
                    .get(field)
                    .unwrap()
                    .as_u64(),
                combined_hist
                    .get("total")
                    .unwrap()
                    .get(field)
                    .unwrap()
                    .as_u64(),
                "field {field}"
            );
        }

        // Prometheus text carries both aggregate and per-shard samples.
        let text = merged.prometheus_text();
        assert!(text.contains("renderd_requests_total{cmd=\"render\",code=\"ok\"} 10"));
        assert!(text.contains("renderd_requests_total{cmd=\"render\",code=\"ok\",shard=\"0\"} 5"));
        assert!(text.contains("# TYPE renderd_request_us summary"));
        assert!(text.contains("renderd_request_us_count{cmd=\"render\",window=\"total\"} 10"));
        assert!(text
            .contains("renderd_request_us_count{cmd=\"render\",shard=\"1\",window=\"total\"} 5"));
    }

    #[test]
    fn merged_metrics_survives_text_round_trip() {
        // The router parses snapshots off the wire; make sure shape
        // survives serialize → parse → merge.
        let reg = MetricsRegistry::new();
        reg.add("c_total", &[("k", "v")], 3);
        reg.observe_at("h_us", &[], SEC, 500);
        let text = reg.mergeable_json(SEC).to_string();
        let parsed = crate::json::parse(&text).unwrap();
        let mut merged = MergedMetrics::new();
        assert!(merged.add_snapshot(None, &parsed));
        assert_eq!(
            merged
                .snapshot_json()
                .get("counters")
                .unwrap()
                .get("c_total{k=\"v\"}")
                .unwrap()
                .as_u64(),
            Some(3)
        );
    }

    #[test]
    fn merged_metrics_saturates_shard_sums() {
        // 2^64 as a float (the JSON of a counter at u64::MAX) reads back
        // as u64::MAX; two shards' worth must not overflow.
        let snap = crate::json::parse(&format!(
            r#"{{"counters":{{"c_total":{:?}}},"gauges":{{"g":{}}},"histograms":{{}}}}"#,
            u64::MAX as f64,
            i64::MAX
        ))
        .unwrap();
        let mut merged = MergedMetrics::new();
        assert!(merged.add_snapshot(Some("0"), &snap));
        assert!(merged.add_snapshot(Some("1"), &snap));
        let out = merged.snapshot_json();
        let counter = out.get("counters").unwrap().get("c_total").unwrap();
        assert_eq!(counter, &JsonValue::from(u64::MAX));
        let gauge = out.get("gauges").unwrap().get("g").unwrap();
        assert_eq!(gauge.as_i64(), Some(i64::MAX));
    }

    #[test]
    fn merged_metrics_rejects_malformed_snapshots() {
        let mut merged = MergedMetrics::new();
        assert!(!merged.add_snapshot(None, &JsonValue::Null));
        assert!(!merged.add_snapshot(None, &crate::json::parse(r#"{"counters":{}}"#).unwrap()));
        assert_eq!(merged.shard_count(), 0);
    }

    #[test]
    fn recorder_folds_and_forwards() {
        let reg = Arc::new(MetricsRegistry::new());
        let ring = Arc::new(crate::sinks::RingBufferRecorder::new(8));
        let rec = MetricsRecorder::with_next(Arc::clone(&reg), ring.clone());
        rec.record(Record {
            kind: RecordKind::Counter,
            name: "c",
            t_us: 0,
            duration_us: None,
            delta: Some(2),
            fields: vec![],
        });
        assert_eq!(reg.counter_value("c_total", &[]), 2);
        assert_eq!(ring.len(), 1, "records must still reach the next sink");
    }
}
