//! Structured telemetry for the kdtune workspace.
//!
//! The crate provides a small, dependency-light instrumentation layer:
//!
//! * [`span`] — a timed region measured with a monotonic clock; the
//!   duration is recorded when the returned [`SpanGuard`] drops.
//! * [`counter`] — a named monotonic counter; deltas are recorded as they
//!   are added and sinks may aggregate them.
//! * [`event`] — a point-in-time occurrence carrying typed key/value
//!   [`Value`] fields.
//!
//! All three route through a process-global [`Recorder`] installed with
//! [`set_recorder`]. No recorder is installed by default: a single
//! relaxed atomic-bool load short-circuits every instrumentation call,
//! so instrumented code pays (almost) nothing when telemetry is off.
//!
//! Sinks live in [`sinks`]: an in-memory ring buffer for tests, a JSONL
//! file writer (hand-rolled serialization — no external serializer), and a
//! pretty stderr printer. Latency aggregation lives in [`histogram`], a
//! log-bucketed histogram with p50/p90/p99 summaries. [`json`] holds the
//! JSONL encoder plus a tiny parser used by trace readers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod metrics;
pub mod sinks;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::RwLock;

pub use histogram::{Histogram, Summary};
pub use metrics::{MergedMetrics, MetricsRecorder, MetricsRegistry, WindowedHistogram};

// ---------------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------------

/// A typed field value attached to a telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// Owned string.
    Str(String),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F64(v as f64)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// What kind of occurrence a [`Record`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A completed timed region; `duration_us` is set.
    Span,
    /// A point-in-time event; fields carry the payload.
    Event,
    /// A counter increment; `delta` is set.
    Counter,
}

impl RecordKind {
    /// Stable lower-case name used in serialized traces.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Span => "span",
            RecordKind::Event => "event",
            RecordKind::Counter => "counter",
        }
    }
}

/// One telemetry record delivered to a [`Recorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Span, event, or counter.
    pub kind: RecordKind,
    /// Dotted record name, e.g. `"tuner.measurement"`.
    pub name: &'static str,
    /// Microseconds since the process telemetry epoch (first use).
    pub t_us: u64,
    /// Span duration in microseconds; `None` for events and counters.
    pub duration_us: Option<u64>,
    /// Counter increment; `None` for spans and events.
    pub delta: Option<i64>,
    /// Typed key/value payload.
    pub fields: Vec<(&'static str, Value)>,
}

// ---------------------------------------------------------------------------
// Recorder trait + global registration
// ---------------------------------------------------------------------------

/// Destination for telemetry records.
///
/// Implementations must be cheap and non-blocking where possible; they are
/// called from hot paths (builders, traversal, tuner iterations).
pub trait Recorder: Send + Sync {
    /// Whether this recorder wants records at all. Instrumentation sites
    /// use the cached global flag (see [`enabled`]) rather than calling
    /// this per record.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one record.
    fn record(&self, record: Record);

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn global() -> &'static RwLock<Option<Arc<dyn Recorder>>> {
    static GLOBAL: OnceLock<RwLock<Option<Arc<dyn Recorder>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(None))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process telemetry epoch.
///
/// This is the single monotonic clock for the whole telemetry layer:
/// record timestamps *and* the metrics sliding-window bucketing (see
/// [`metrics::WindowedHistogram`]) are derived from it, never from wall
/// time, so system clock steps cannot corrupt window rotation.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Installs `recorder` as the process-global telemetry sink, replacing any
/// previous one. Returns the previously installed recorder, if any.
pub fn set_recorder(recorder: Arc<dyn Recorder>) -> Option<Arc<dyn Recorder>> {
    epoch(); // pin t=0 no later than installation
    let enabled = recorder.enabled();
    let prev = global().write().replace(recorder);
    ACTIVE.store(enabled, Ordering::Release);
    prev
}

/// Removes the global recorder, returning instrumentation to the zero-cost
/// disabled state. Returns the recorder that was installed, if any.
pub fn clear_recorder() -> Option<Arc<dyn Recorder>> {
    ACTIVE.store(false, Ordering::Release);
    global().write().take()
}

/// Whether a recorder is installed and accepting records.
///
/// This is a single relaxed atomic load — use it to gate any payload
/// computation that is itself non-trivial (e.g. tree statistics).
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Flushes the installed recorder, if any.
pub fn flush() {
    if let Some(r) = global().read().as_ref() {
        r.flush();
    }
}

/// Writes command output to stdout, like `print!`. A reader that went
/// away (`kdtune render bunny | head -1`) leaves the command nothing to
/// do, so a broken pipe flushes telemetry and ends the process with
/// status 0 where `print!` would panic.
pub fn print_or_exit(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            flush();
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `println!` through [`print_or_exit`]: the command-line binaries'
/// output macro.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::print_or_exit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::print_or_exit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

#[inline]
fn dispatch(mut record: Record) {
    // Tag records with the thread's active trace (see [`trace`]) so
    // builder/tuner records correlate with the request being served.
    if let Some(id) = trace::current() {
        record.fields.push(("trace", Value::U64(id)));
    }
    if let Some(r) = global().read().as_ref() {
        r.record(record);
    }
}

// ---------------------------------------------------------------------------
// Instrumentation surface: span / counter / event
// ---------------------------------------------------------------------------

/// Records `name` as an [`RecordKind::Event`] with the given fields.
///
/// `fields` is only materialized when telemetry is enabled, so callers can
/// pass inline slices without cost in the disabled case — but *computing*
/// an expensive field value should still be gated on [`enabled`].
#[inline]
pub fn event(name: &'static str, fields: &[(&'static str, Value)]) {
    if !enabled() {
        return;
    }
    dispatch(Record {
        kind: RecordKind::Event,
        name,
        t_us: now_us(),
        duration_us: None,
        delta: None,
        fields: fields.to_vec(),
    });
}

/// Like [`event`], but takes ownership of an already-built field vector —
/// for call sites that assemble fields dynamically and would otherwise pay
/// a clone. Callers should gate the vector's construction on [`enabled`].
#[inline]
pub fn event_owned(name: &'static str, fields: Vec<(&'static str, Value)>) {
    if !enabled() {
        return;
    }
    dispatch(Record {
        kind: RecordKind::Event,
        name,
        t_us: now_us(),
        duration_us: None,
        delta: None,
        fields,
    });
}

/// Starts a timed span named `name`. Duration is recorded when the guard
/// drops. When telemetry is disabled the guard is inert (no clock read).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start: None,
            fields: Vec::new(),
        };
    }
    SpanGuard {
        name,
        start: Some(Instant::now()),
        fields: Vec::new(),
    }
}

/// Guard for a timed region; records a [`RecordKind::Span`] on drop.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, Value)>,
}

impl SpanGuard {
    /// Attaches a field to the span record (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Attaches a field through a mutable reference, for spans held across
    /// scopes where builder-style chaining is inconvenient.
    pub fn add_field(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
    }

    /// Whether this guard is actually measuring (telemetry was enabled when
    /// it was created).
    pub fn is_active(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let duration_us = start.elapsed().as_micros() as u64;
        dispatch(Record {
            kind: RecordKind::Span,
            name: self.name,
            t_us: now_us(),
            duration_us: Some(duration_us),
            delta: None,
            fields: std::mem::take(&mut self.fields),
        });
    }
}

/// Handle for a named counter; see [`counter`].
#[derive(Clone, Copy)]
pub struct Counter {
    name: &'static str,
}

impl Counter {
    /// Adds `n` to the counter. A no-op when telemetry is disabled.
    #[inline]
    pub fn add(self, n: u64) {
        if !enabled() || n == 0 {
            return;
        }
        dispatch(Record {
            kind: RecordKind::Counter,
            name: self.name,
            t_us: now_us(),
            duration_us: None,
            delta: Some(n as i64),
            fields: Vec::new(),
        });
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn incr(self) {
        self.add(1);
    }
}

/// Returns a handle for the counter named `name`.
#[inline]
pub fn counter(name: &'static str) -> Counter {
    Counter { name }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::RingBufferRecorder;

    // The global recorder is process-wide; every test in this module that
    // installs one must run under this lock to avoid cross-talk.
    static GLOBAL_TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn disabled_by_default_and_guard_inert() {
        let _l = GLOBAL_TEST_LOCK.lock();
        clear_recorder();
        assert!(!enabled());
        let g = span("x");
        assert!(!g.is_active());
        drop(g);
        counter("c").add(10);
        event("e", &[("k", Value::U64(1))]);
        // Nothing to observe — this just must not panic or deadlock.
    }

    #[test]
    fn records_flow_to_installed_recorder() {
        let _l = GLOBAL_TEST_LOCK.lock();
        let ring = Arc::new(RingBufferRecorder::new(16));
        set_recorder(ring.clone());
        assert!(enabled());

        {
            let _s = span("build").field("algo", "nested").field("tris", 42u64);
            counter("tasks").add(3);
            event("phase", &[("from", "seed".into()), ("to", "search".into())]);
        }
        clear_recorder();

        let records = ring.snapshot();
        assert_eq!(records.len(), 3);
        // Counter and event precede the span (span records on drop).
        assert_eq!(records[0].kind, RecordKind::Counter);
        assert_eq!(records[0].delta, Some(3));
        assert_eq!(records[1].kind, RecordKind::Event);
        assert_eq!(records[1].name, "phase");
        assert_eq!(records[2].kind, RecordKind::Span);
        assert_eq!(records[2].name, "build");
        assert!(records[2].duration_us.is_some());
        assert_eq!(records[2].fields[0], ("algo", Value::Str("nested".into())));
        assert_eq!(records[2].fields[1], ("tris", Value::U64(42)));
    }

    #[test]
    fn timestamps_are_monotonic_non_decreasing() {
        let _l = GLOBAL_TEST_LOCK.lock();
        let ring = Arc::new(RingBufferRecorder::new(64));
        set_recorder(ring.clone());
        for _ in 0..10 {
            event("tick", &[]);
        }
        clear_recorder();
        let records = ring.snapshot();
        assert_eq!(records.len(), 10);
        for w in records.windows(2) {
            assert!(w[0].t_us <= w[1].t_us);
        }
    }

    #[test]
    fn dispatched_records_carry_the_active_trace_id() {
        let _l = GLOBAL_TEST_LOCK.lock();
        let ring = Arc::new(RingBufferRecorder::new(8));
        set_recorder(ring.clone());
        {
            let _t = trace::enter(99);
            event("tagged", &[]);
            let _s = span("tagged.span");
        }
        event("untagged", &[]);
        clear_recorder();
        let records = ring.snapshot();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].fields, vec![("trace", Value::U64(99))]);
        assert_eq!(records[1].name, "tagged.span");
        assert_eq!(records[1].fields, vec![("trace", Value::U64(99))]);
        assert!(records[2].fields.is_empty());
    }

    #[test]
    fn zero_delta_counter_is_suppressed() {
        let _l = GLOBAL_TEST_LOCK.lock();
        let ring = Arc::new(RingBufferRecorder::new(4));
        set_recorder(ring.clone());
        counter("c").add(0);
        clear_recorder();
        assert!(ring.snapshot().is_empty());
    }
}
