//! The aggregated run report: per-span-family totals, counter and
//! gauge tables, rendered as JSON (for `BENCH_*.json` embedding) or as
//! a text table (`rdf stats`), and re-derivable from a trace file.

use std::fmt::Write as _;

use crate::json::{self, escape, Json};

/// Aggregate over every span event sharing one name ("family"):
/// `refine.round`, `shard.load`, `store.section`, ….
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTotal {
    /// Span family name.
    pub name: String,
    /// Number of events emitted.
    pub count: u64,
    /// Sum of the events' elapsed microseconds.
    pub total_us: u64,
}

/// The final aggregate of a recorded run. Produced by
/// [`finish`](crate::Recorder::finish) or re-derived from a trace file
/// with [`RunReport::from_jsonl`]. All tables are sorted by name, so
/// two reports over the same events compare equal regardless of
/// emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// `available_parallelism()` of the recording machine — the same
    /// honesty datum every `BenchRecord` carries.
    pub cores: usize,
    /// Per-family span totals, sorted by name.
    pub spans: Vec<SpanTotal>,
    /// Counter table (name → accumulated sum), sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge table (name → maximum observed), sorted by name.
    pub gauges: Vec<(String, u64)>,
}

impl RunReport {
    /// Look up a span family by name.
    pub fn span(&self, name: &str) -> Option<&SpanTotal> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// The report body as JSON object members (no surrounding braces);
    /// shared by [`RunReport::to_json`] and the trace's final
    /// `{"ev":"report",...}` line.
    pub(crate) fn json_body(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(out, "\"cores\":{}", self.cores);
        out.push_str(",\"spans\":{");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"total_us\":{}}}",
                escape(&s.name),
                s.count,
                s.total_us
            );
        }
        out.push_str("},\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v);
        }
        out.push('}');
        out
    }

    /// Render as one compact JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_body())
    }

    /// Re-derive a report from a JSONL trace. Span totals are
    /// aggregated from the `"span"` event lines themselves; the
    /// counter/gauge tables and core count come from the final
    /// `"report"` line (they never appear as per-update events). Every
    /// line must parse as a JSON object with an `"ev"` key, and span
    /// lines must carry `"name"` and `"us"` — anything else is an
    /// error naming the offending line.
    pub fn from_jsonl(text: &str) -> Result<RunReport, String> {
        let mut spans: Vec<SpanTotal> = Vec::new();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut cores = 0usize;
        let mut saw_report = false;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let ev = v
                .get("ev")
                .and_then(Json::as_str)
                .ok_or_else(|| {
                    format!("line {}: missing \"ev\" key", lineno + 1)
                })?;
            match ev {
                "span" => {
                    let name = v
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| {
                            format!(
                                "line {}: span without \"name\"",
                                lineno + 1
                            )
                        })?;
                    let us =
                        v.get("us").and_then(Json::as_u64).ok_or_else(
                            || {
                                format!(
                                    "line {}: span without \"us\"",
                                    lineno + 1
                                )
                            },
                        )?;
                    match spans.iter_mut().find(|s| s.name == name) {
                        Some(s) => {
                            s.count += 1;
                            s.total_us = s.total_us.saturating_add(us);
                        }
                        None => spans.push(SpanTotal {
                            name: name.to_string(),
                            count: 1,
                            total_us: us,
                        }),
                    }
                }
                "report" => {
                    saw_report = true;
                    cores = v
                        .get("cores")
                        .and_then(Json::as_u64)
                        .unwrap_or(0) as usize;
                    for (dst, key) in [
                        (&mut counters, "counters"),
                        (&mut gauges, "gauges"),
                    ] {
                        if let Some(table) =
                            v.get(key).and_then(Json::as_obj)
                        {
                            for (k, val) in table {
                                let n =
                                    val.as_u64().ok_or_else(|| {
                                        format!(
                                            "line {}: non-integer value \
                                             for {key} entry {k:?}",
                                            lineno + 1
                                        )
                                    })?;
                                dst.push((k.clone(), n));
                            }
                        }
                    }
                    // A report from a run with no span events still
                    // knows its span table; use it when the trace has
                    // no per-event lines to aggregate from.
                    if spans.is_empty() {
                        if let Some(table) =
                            v.get("spans").and_then(Json::as_obj)
                        {
                            for (name, fam) in table {
                                spans.push(SpanTotal {
                                    name: name.clone(),
                                    count: fam
                                        .get("count")
                                        .and_then(Json::as_u64)
                                        .unwrap_or(0),
                                    total_us: fam
                                        .get("total_us")
                                        .and_then(Json::as_u64)
                                        .unwrap_or(0),
                                });
                            }
                        }
                    }
                }
                other => {
                    return Err(format!(
                        "line {}: unknown event kind {other:?}",
                        lineno + 1
                    ))
                }
            }
        }
        if spans.is_empty() && !saw_report {
            return Err("trace contains no events".to_string());
        }
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        counters.sort();
        gauges.sort();
        Ok(RunReport {
            cores,
            spans,
            counters,
            gauges,
        })
    }

    /// Render the report as the human-readable table printed by
    /// `rdf stats`.
    pub fn render_table(&self) -> String {
        let name_w = self
            .spans
            .iter()
            .map(|s| s.name.len())
            .chain(std::iter::once("span family".len()))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(out, "run report (cores = {})", self.cores);
        out.push('\n');
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>8}  {:>12}  {:>12}",
            "span family", "count", "total ms", "mean us"
        );
        for s in &self.spans {
            let total_ms = s.total_us as f64 / 1000.0;
            let mean_us = if s.count > 0 {
                s.total_us as f64 / s.count as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>8}  {:>12.3}  {:>12.1}",
                s.name, s.count, total_ms, mean_us
            );
        }
        if !self.counters.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "counters");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k} = {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "gauges");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k} = {v}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            cores: 2,
            spans: vec![
                SpanTotal {
                    name: "refine.round".into(),
                    count: 3,
                    total_us: 600,
                },
                SpanTotal {
                    name: "shard.load".into(),
                    count: 4,
                    total_us: 100,
                },
            ],
            counters: vec![("store.widen".into(), 42)],
            gauges: vec![("mem.peak_bytes".into(), 4096)],
        }
    }

    #[test]
    fn json_round_trip() {
        let r = sample();
        let json = r.to_json();
        // The JSON form parses and carries every table.
        let v = json::parse(&json).unwrap();
        assert_eq!(v.get("cores").unwrap().as_u64(), Some(2));
        let fam = v.get("spans").unwrap().get("refine.round").unwrap();
        assert_eq!(fam.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("mem.peak_bytes")
                .unwrap()
                .as_u64(),
            Some(4096)
        );
        // And a trace consisting only of the report line reproduces it.
        let trace = format!("{{\"ev\":\"report\",{}}}\n", r.json_body());
        let back = RunReport::from_jsonl(&trace).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_jsonl_aggregates_span_lines() {
        let trace = concat!(
            "{\"ev\":\"span\",\"name\":\"refine.round\",\"us\":100,\"round\":1}\n",
            "{\"ev\":\"span\",\"name\":\"refine.round\",\"us\":200,\"round\":2}\n",
            "{\"ev\":\"span\",\"name\":\"shard.load\",\"us\":5,\"shard\":0}\n",
        );
        let r = RunReport::from_jsonl(trace).unwrap();
        assert_eq!(r.span("refine.round").unwrap().count, 2);
        assert_eq!(r.span("refine.round").unwrap().total_us, 300);
        assert_eq!(r.span("shard.load").unwrap().count, 1);
    }

    #[test]
    fn from_jsonl_rejects_bad_lines() {
        assert!(RunReport::from_jsonl("").is_err());
        assert!(RunReport::from_jsonl("not json\n").is_err());
        let no_ev = "{\"name\":\"x\",\"us\":1}\n";
        assert!(RunReport::from_jsonl(no_ev).is_err());
        let no_us = "{\"ev\":\"span\",\"name\":\"x\"}\n";
        assert!(RunReport::from_jsonl(no_us).is_err());
        let unknown = "{\"ev\":\"mystery\"}\n";
        assert!(RunReport::from_jsonl(unknown).is_err());
    }

    #[test]
    fn table_names_span_families() {
        let table = sample().render_table();
        assert!(table.contains("refine.round"));
        assert!(table.contains("shard.load"));
        assert!(table.contains("cores = 2"));
        assert!(table.contains("mem.peak_bytes = 4096"));
    }
}
