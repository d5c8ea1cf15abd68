//! In-memory spans for the traced run, written out as one JSON file.

use kdtune::telemetry::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary. Spans of one operation share
/// `op`; `parent` indexes the span that caused this one.
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Units of work the span did (rays traced, …), where counted.
    pub work: Option<f64>,
}

/// Collects spans when enabled; a disabled tracer records nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds from the tracer's epoch to `t`.
    pub fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span and returns its index (`None` when disabled).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            op,
            work: None,
        });
        Some(self.spans.len() - 1)
    }

    /// Attaches a work count to the span `index` returned by a record call.
    pub fn set_work(&mut self, index: Option<usize>, work: f64) {
        if let Some(span) = index.and_then(|i| self.spans.get_mut(i)) {
            span.work = Some(work);
        }
    }

    /// [`Tracer::record`] between two instants.
    pub fn record_between(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        let (s, e) = (self.offset_us(start), self.offset_us(end));
        self.record(name, s, e, parent, op)
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Total work counted on spans named `name`.
    pub fn work(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.work)
            .sum()
    }

    /// The spans as a JSON array of objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let work = s.work.map_or(String::new(), |w| format!(",\"work\":{w}"));
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}{work}}}{}",
                escape(&s.name),
                s.start_us,
                s.end_us,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune::telemetry::json::{parse, JsonValue};

    #[test]
    fn disabled_records_nothing_and_enabled_writes_valid_json() {
        let mut off = Tracer::new(false);
        assert_eq!(off.record("x", 0.0, 1.0, None, 1), None);
        assert!(off.spans.is_empty());

        let mut on = Tracer::new(true);
        let root = on.record("frame", 0.0, 10.0, None, 3);
        let build = on.record("kdtree.build", 1.0, 4.0, root, 3);
        on.set_work(build, 7.0);
        assert_eq!(on.durations_us("kdtree.build"), vec![3.0]);
        assert_eq!(on.work("kdtree.build"), 7.0);
        let parsed = parse(&on.to_json()).unwrap();
        let JsonValue::Array(spans) = parsed else {
            panic!("spans are not an array")
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(spans[1].get("op").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(spans[1].get("work").and_then(JsonValue::as_f64), Some(7.0));
    }
}
