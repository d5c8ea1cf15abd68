//! Recorder implementations: in-memory ring buffer, JSONL file writer,
//! and pretty stderr printer.

use crate::json::record_to_jsonl;
use crate::{Record, RecordKind, Recorder};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::Path;

// ---------------------------------------------------------------------------
// RingBufferRecorder
// ---------------------------------------------------------------------------

/// Keeps the most recent `capacity` records in memory, overwriting the
/// oldest on overflow. Intended for tests and interactive inspection.
pub struct RingBufferRecorder {
    buf: Mutex<VecDeque<Record>>,
    capacity: usize,
    dropped: Mutex<u64>,
}

impl RingBufferRecorder {
    /// Creates a ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBufferRecorder {
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            dropped: Mutex::new(0),
        }
    }

    /// Copies out the current contents, oldest first.
    pub fn snapshot(&self) -> Vec<Record> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Drains the buffer, returning its contents oldest first.
    pub fn take(&self) -> Vec<Record> {
        self.buf.lock().drain(..).collect()
    }

    /// How many records have been overwritten since creation.
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock()
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }
}

impl Recorder for RingBufferRecorder {
    fn record(&self, record: Record) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            *self.dropped.lock() += 1;
        }
        buf.push_back(record);
    }
}

// ---------------------------------------------------------------------------
// JsonlRecorder
// ---------------------------------------------------------------------------

/// Appends each record as one JSON object per line to a writer (typically
/// a file). Serialization is hand-rolled — see [`crate::json`].
pub struct JsonlRecorder {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlRecorder {
    /// Creates (truncating) `path` and writes the trace there.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// Wraps an arbitrary writer (used by tests with `Vec<u8>` contexts).
    pub fn from_writer(w: Box<dyn Write + Send>) -> Self {
        JsonlRecorder {
            out: Mutex::new(BufWriter::new(w)),
        }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, record: Record) {
        let line = record_to_jsonl(&record);
        let mut out = self.out.lock();
        // Trace output is best-effort; a full disk shouldn't panic the
        // instrumented program.
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let _ = self.out.lock().flush();
    }
}

// ---------------------------------------------------------------------------
// StderrRecorder
// ---------------------------------------------------------------------------

/// Pretty-prints records to stderr, one line each, for interactive use
/// (e.g. `kdtune stats`).
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrRecorder;

impl StderrRecorder {
    fn format(record: &Record) -> String {
        let mut line = String::with_capacity(80);
        let t_ms = record.t_us as f64 / 1e3;
        line.push_str(&format!("[{t_ms:>10.3} ms] "));
        match record.kind {
            RecordKind::Span => {
                let d = record.duration_us.unwrap_or(0);
                line.push_str(&format!(
                    "{:<28} {}",
                    record.name,
                    crate::Summary::fmt_us(d)
                ));
            }
            RecordKind::Counter => {
                line.push_str(&format!(
                    "{:<28} +{}",
                    record.name,
                    record.delta.unwrap_or(0)
                ));
            }
            RecordKind::Event => {
                line.push_str(&format!("{:<28}", record.name));
            }
        }
        for (k, v) in &record.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }
}

impl Recorder for StderrRecorder {
    fn record(&self, record: Record) {
        eprintln!("{}", Self::format(&record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn rec(name: &'static str, t_us: u64) -> Record {
        Record {
            kind: RecordKind::Event,
            name,
            t_us,
            duration_us: None,
            delta: None,
            fields: vec![],
        }
    }

    #[test]
    fn ring_buffer_overwrites_oldest() {
        let ring = RingBufferRecorder::new(3);
        for i in 0..5u64 {
            ring.record(rec("e", i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|r| r.t_us).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest records are overwritten first"
        );
        assert_eq!(ring.dropped(), 2);
        // take() drains.
        assert_eq!(ring.take().len(), 3);
        assert!(ring.is_empty());
        assert_eq!(ring.len(), 0);
    }

    #[test]
    fn ring_buffer_zero_capacity_clamps_to_one() {
        let ring = RingBufferRecorder::new(0);
        ring.record(rec("a", 1));
        ring.record(rec("b", 2));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "b");
    }

    #[test]
    fn jsonl_recorder_writes_one_line_per_record() {
        use std::sync::{Arc, Mutex as StdMutex};

        // Shared Vec<u8> writer to capture output.
        #[derive(Clone)]
        struct Shared(Arc<StdMutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let store = Arc::new(StdMutex::new(Vec::new()));
        let sink = JsonlRecorder::from_writer(Box::new(Shared(store.clone())));
        sink.record(Record {
            kind: RecordKind::Span,
            name: "s",
            t_us: 10,
            duration_us: Some(5),
            delta: None,
            fields: vec![("k", Value::Str("v\"w".into()))],
        });
        sink.record(rec("e", 20));
        sink.flush();

        let bytes = store.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("duration_us").unwrap().as_u64(), Some(5));
        assert_eq!(
            first.get("fields").unwrap().get("k").unwrap().as_str(),
            Some("v\"w")
        );
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("t_us").unwrap().as_u64(), Some(20));
    }

    #[test]
    fn stderr_format_is_single_line() {
        let r = Record {
            kind: RecordKind::Span,
            name: "kdtree.build",
            t_us: 1_234,
            duration_us: Some(2_500),
            delta: None,
            fields: vec![("algo", Value::Str("lazy".into())), ("n", Value::U64(9))],
        };
        let line = StderrRecorder::format(&r);
        assert!(!line.contains('\n'));
        assert!(line.contains("kdtree.build"));
        assert!(line.contains("algo=lazy"));
        assert!(line.contains("n=9"));
        assert!(line.contains("2.500 ms"));
    }
}
