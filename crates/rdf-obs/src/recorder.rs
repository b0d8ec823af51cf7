//! The recorder, disabled or appending JSONL, and the span, counter and
//! gauge handles it hands out.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::escape;
use crate::report::{RunReport, SpanTotal};

/// A value attached to a span event as a JSON field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer, emitted verbatim.
    U64(u64),
    /// Signed integer, emitted verbatim.
    I64(i64),
    /// Floating point; non-finite values are emitted as JSON `null`.
    F64(f64),
    /// String, emitted with JSON escaping.
    Str(String),
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(_) => out.push_str("null"),
            FieldValue::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// The instrumentation handle threaded through engines, store readers
/// and the CLI: either disabled, or appending JSONL events to a sink.
///
/// A concrete type over an `Option` rather than a `&dyn` trait object:
/// the disabled recorder costs one predictable branch on `None` per
/// call site, hands out guards that read no clock, and lets the
/// optimiser erase instrumentation from monomorphic loops, which is
/// what keeps the untraced path's cost near zero (`perfbench/`
/// reports it as `trace_overhead_pct`).
#[derive(Default)]
pub struct Recorder {
    jsonl: Option<JsonlRecorder>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.enabled() {
            "Recorder(jsonl)"
        } else {
            "Recorder(disabled)"
        })
    }
}

impl Recorder {
    /// The no-op recorder, usable in `const` position.
    pub const fn disabled() -> Recorder {
        Recorder { jsonl: None }
    }

    /// Recorder appending JSONL events to a freshly created file.
    pub fn jsonl_file(path: impl AsRef<Path>) -> io::Result<Recorder> {
        let file = std::fs::File::create(path)?;
        Ok(Recorder::jsonl_writer(Box::new(BufWriter::new(file))))
    }

    /// Recorder appending JSONL events to an arbitrary sink.
    /// `Recorder::jsonl_writer(Box::new(std::io::sink()))` aggregates a
    /// [`RunReport`] without keeping the event stream.
    pub fn jsonl_writer(out: Box<dyn io::Write + Send>) -> Recorder {
        Recorder {
            jsonl: Some(JsonlRecorder::to_writer(out)),
        }
    }

    /// `true` when this recorder actually collects events. Hot paths
    /// may use this to skip building expensive field values.
    pub fn enabled(&self) -> bool {
        self.jsonl.is_some()
    }

    /// Start a timed span; emitted as one JSONL event when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard::new(self.jsonl.as_ref(), name)
    }

    /// Handle on a named monotone counter. Counters aggregate into the
    /// final [`RunReport`] only — no per-update event is written, so
    /// trace event counts stay independent of thread scheduling.
    pub fn counter<'a>(&'a self, name: &'a str) -> Counter<'a> {
        Counter {
            rec: self.jsonl.as_ref(),
            name,
        }
    }

    /// Handle on a named gauge. Gauges keep the **maximum** value seen
    /// (the use cases are peaks: residency, buffer bytes) and, like
    /// counters, surface only in the final [`RunReport`].
    pub fn gauge<'a>(&'a self, name: &'a str) -> Gauge<'a> {
        Gauge {
            rec: self.jsonl.as_ref(),
            name,
        }
    }

    /// Flush, append the final `{"ev":"report",...}` line and return
    /// the aggregated report. Returns `Ok(None)` for the disabled
    /// recorder. Calling `finish` more than once re-returns the report
    /// without writing a second line. If any earlier write failed,
    /// that error surfaces here (span emission happens in `Drop`,
    /// which cannot fail).
    pub fn finish(&self) -> io::Result<Option<RunReport>> {
        self.jsonl.as_ref().map(JsonlRecorder::finish).transpose()
    }
}

/// A monotonic-clock timed span in flight. Dropping the guard emits
/// one `{"ev":"span",...}` line carrying the elapsed microseconds and
/// any fields attached via [`SpanGuard::field`]. Guards nest freely —
/// each is an independent event.
pub struct SpanGuard<'a> {
    rec: Option<&'a JsonlRecorder>,
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl<'a> SpanGuard<'a> {
    fn new(rec: Option<&'a JsonlRecorder>, name: &'static str) -> Self {
        SpanGuard {
            start: rec.map(|_| Instant::now()),
            rec,
            name,
            fields: Vec::new(),
        }
    }

    /// `true` when this span will actually be emitted.
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Attach a field to the event. No-op (no allocation) when the
    /// span is disabled.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.rec.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(rec), Some(start)) = (self.rec, self.start) {
            let us = start.elapsed().as_micros() as u64;
            rec.emit_span(self.name, us, &self.fields);
        }
    }
}

/// Handle on a named monotone counter (see [`Recorder::counter`]).
pub struct Counter<'a> {
    rec: Option<&'a JsonlRecorder>,
    name: &'a str,
}

impl Counter<'_> {
    /// Add `n` to the counter's aggregate.
    pub fn add(&self, n: u64) {
        if let Some(rec) = self.rec {
            let mut inner = rec.lock();
            let slot = inner.counters.entry(self.name.to_string()).or_insert(0);
            *slot = slot.saturating_add(n);
        }
    }
}

/// Handle on a named gauge (see [`Recorder::gauge`]).
pub struct Gauge<'a> {
    rec: Option<&'a JsonlRecorder>,
    name: &'a str,
}

impl Gauge<'_> {
    /// Record a gauge observation; the aggregate keeps the maximum.
    pub fn set(&self, v: u64) {
        if let Some(rec) = self.rec {
            let mut inner = rec.lock();
            let slot = inner.gauges.entry(self.name.to_string()).or_insert(0);
            *slot = (*slot).max(v);
        }
    }
}

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_us: u64,
}

struct Inner {
    out: Box<dyn Write + Send>,
    spans: BTreeMap<&'static str, SpanAgg>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    io_error: Option<io::Error>,
    finished: bool,
}

/// The enabled recorder's state: appends one JSON object per line to
/// a sink and aggregates spans, counters and gauges into a
/// [`RunReport`].
///
/// All state sits behind one mutex; the intended emitters are
/// per-round / per-block / per-section events, orders of magnitude
/// rarer than the per-node work they measure, so contention is not a
/// concern. I/O errors during emission are sticky and reported by
/// [`Recorder::finish`].
struct JsonlRecorder {
    inner: Mutex<Inner>,
}

impl JsonlRecorder {
    /// Record events into an arbitrary sink.
    fn to_writer(out: Box<dyn Write + Send>) -> JsonlRecorder {
        JsonlRecorder {
            inner: Mutex::new(Inner {
                out,
                spans: BTreeMap::new(),
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                io_error: None,
                finished: false,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn emit_span(&self, name: &'static str, us: u64, fields: &[(&'static str, FieldValue)]) {
        let mut line = String::with_capacity(64 + fields.len() * 16);
        line.push_str("{\"ev\":\"span\",\"name\":\"");
        line.push_str(&escape(name));
        line.push_str("\",\"us\":");
        {
            use std::fmt::Write as _;
            let _ = write!(line, "{us}");
        }
        for (key, value) in fields {
            line.push_str(",\"");
            line.push_str(&escape(key));
            line.push_str("\":");
            value.write_json(&mut line);
        }
        line.push('}');
        line.push('\n');
        let mut inner = self.lock();
        let agg = inner.spans.entry(name).or_default();
        agg.count += 1;
        agg.total_us = agg.total_us.saturating_add(us);
        if inner.io_error.is_none() {
            if let Err(e) = inner.out.write_all(line.as_bytes()) {
                inner.io_error = Some(e);
            }
        }
    }

    fn snapshot(inner: &Inner) -> RunReport {
        RunReport {
            cores: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            spans: inner
                .spans
                .iter()
                .map(|(name, agg)| SpanTotal {
                    name: (*name).to_string(),
                    count: agg.count,
                    total_us: agg.total_us,
                })
                .collect(),
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Append the final `{"ev":"report",...}` line, flush the sink and
    /// return the aggregated report; see [`Recorder::finish`].
    fn finish(&self) -> io::Result<RunReport> {
        let mut inner = self.lock();
        let report = Self::snapshot(&inner);
        if let Some(e) = inner.io_error.take() {
            return Err(e);
        }
        if !inner.finished {
            inner.finished = true;
            let line =
                format!("{{\"ev\":\"report\",{}}}\n", report.json_body());
            inner.out.write_all(line.as_bytes())?;
            inner.out.flush()?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A shared Vec<u8> sink so tests can read back what was written.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn jsonl_pair() -> (Recorder, SharedBuf) {
        let buf = SharedBuf::default();
        let rec = Recorder::jsonl_writer(Box::new(buf.clone()));
        (rec, buf)
    }

    #[test]
    fn null_recorder_is_inert_and_cheap() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        let mut sp = rec.span("x");
        assert!(!sp.enabled());
        sp.field("k", 1u64);
        drop(sp);
        rec.counter("c").add(5);
        rec.gauge("g").set(9);
        assert!(rec.finish().unwrap().is_none());
    }

    #[test]
    fn spans_counters_gauges_aggregate() {
        let (rec, buf) = jsonl_pair();
        assert!(rec.enabled());
        for round in 0..3u32 {
            let mut sp = rec.span("refine.round");
            sp.field("round", round + 1);
            sp.field("label", "seq");
        }
        rec.counter("store.widen").add(7);
        rec.counter("store.widen").add(3);
        rec.gauge("mem.peak_bytes").set(10);
        rec.gauge("mem.peak_bytes").set(4);
        let report = rec.finish().unwrap().unwrap();
        let fam = report.span("refine.round").unwrap();
        assert_eq!(fam.count, 3);
        assert_eq!(report.counter("store.widen"), Some(10));
        // Gauges keep the maximum, not the last value.
        assert_eq!(report.gauge("mem.peak_bytes"), Some(10));

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> =
            text.lines().filter(|l| !l.trim().is_empty()).collect();
        // 3 span events + 1 report line; counters/gauges emit nothing.
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let v = crate::json::parse(line).expect("valid JSON line");
            assert!(v.get("ev").is_some());
        }
        assert!(lines[3].contains("\"ev\":\"report\""));
        // Round-trip: parsing the trace reproduces the aggregates.
        let parsed = RunReport::from_jsonl(&text).unwrap();
        assert_eq!(parsed.span("refine.round").unwrap().count, 3);
        assert_eq!(parsed.counter("store.widen"), Some(10));
        assert_eq!(parsed.gauge("mem.peak_bytes"), Some(10));
    }

    #[test]
    fn finish_is_idempotent() {
        let (rec, buf) = jsonl_pair();
        rec.span("s");
        let a = rec.finish().unwrap().unwrap();
        let b = rec.finish().unwrap().unwrap();
        assert_eq!(a.span("s").unwrap().count, b.span("s").unwrap().count);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text.lines().filter(|l| l.contains("\"ev\":\"report\"")).count(),
            1
        );
    }

    #[test]
    fn string_fields_are_escaped() {
        let (rec, buf) = jsonl_pair();
        {
            let mut sp = rec.span("s");
            sp.field("path", "a\"b\\c\nd");
        }
        rec.finish().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let first = text.lines().next().unwrap();
        let v = crate::json::parse(first).unwrap();
        assert_eq!(v.get("path").unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let (rec, _buf) = jsonl_pair();
        let rec = Arc::new(rec);
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    let mut sp = rec.span("store.section");
                    sp.field("worker", w);
                    rec.counter(&format!("w{w}")).add(1);
                });
            }
        });
        let report = rec.finish().unwrap().unwrap();
        assert_eq!(report.span("store.section").unwrap().count, 4);
        for w in 0..4 {
            assert_eq!(report.counter(&format!("w{w}")), Some(1));
        }
    }
}
