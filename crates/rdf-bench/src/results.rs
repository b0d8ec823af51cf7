//! Machine-readable benchmark records.
//!
//! Every figure run of the `repro` binary writes a `BENCH_<name>.json`
//! next to its human-readable output. The format is a single flat JSON
//! object — hand-rolled here because the offline dependency set carries
//! no serde.

use rdf_obs::json::escape;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One benchmark result: identity, parameters, wall time, scale.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Record name; the file is `BENCH_<name>.json`.
    pub name: String,
    /// Free-form parameters (scale, theta, reps, …), emitted as strings.
    pub params: Vec<(String, String)>,
    /// Wall-clock time of the measured work, in milliseconds.
    pub wall_ms: f64,
    /// Node count of the workload graph(s).
    pub nodes: usize,
    /// Triple count of the workload graph(s).
    pub triples: usize,
}

impl BenchRecord {
    /// A record with the given name and measured wall time.
    ///
    /// Every record automatically carries a `cores` parameter — the
    /// machine's [`std::thread::available_parallelism`] at measurement
    /// time — so a reader can tell what hardware a record came from.
    pub fn new(name: impl Into<String>, wall_ms: f64) -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        BenchRecord {
            name: name.into(),
            params: vec![("cores".into(), cores.to_string())],
            wall_ms,
            nodes: 0,
            triples: 0,
        }
    }

    /// Attach a parameter.
    pub fn param(mut self, key: &str, value: impl ToString) -> Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Set workload node/triple counts.
    pub fn counts(mut self, nodes: usize, triples: usize) -> Self {
        self.nodes = nodes;
        self.triples = triples;
        self
    }

    /// Serialise to a JSON object (stable key order, `\n`-terminated).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"name\": \"{}\",", escape(&self.name));
        out.push_str("  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": \"{}\"", escape(k), escape(v));
        }
        out.push_str("},\n");
        let _ = writeln!(out, "  \"wall_ms\": {},", json_number(self.wall_ms));
        let _ = writeln!(out, "  \"nodes\": {},", self.nodes);
        let _ = writeln!(out, "  \"triples\": {}", self.triples);
        out.push_str("}\n");
        out
    }

    /// Write `BENCH_<name>.json` into `dir` (created if absent); returns
    /// the path written.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir.as_ref())?;
        let path = dir.as_ref().join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Format a float as valid JSON (finite; trailing-zero trimmed).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let r = BenchRecord::new("fig9", 12.5)
            .param("scale", 1.0)
            .param("note", "with \"quotes\"\n")
            .counts(100, 200);
        let j = r.to_json();
        assert!(j.contains("\"name\": \"fig9\""));
        // The provenance parameter is always present, first.
        assert!(j.contains("\"cores\": \""));
        assert!(j.contains("\"scale\": \"1\""));
        assert!(j.contains("\\\"quotes\\\"\\n"));
        assert!(j.contains("\"wall_ms\": 12.5"));
        assert!(j.contains("\"nodes\": 100"));
        assert!(j.contains("\"triples\": 200"));
        assert!(j.ends_with("}\n"));
        // Balanced braces, no trailing commas before a close.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",}"));
        assert!(!j.contains(",\n}"));
    }

    #[test]
    fn write_to_creates_named_file() {
        let dir = std::env::temp_dir()
            .join(format!("rdf-bench-results-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = BenchRecord::new("unit_test", 1.0).write_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit_test.json"));
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("unit_test"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn numbers_render_as_valid_json() {
        assert_eq!(json_number(1.0), "1");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }
}
