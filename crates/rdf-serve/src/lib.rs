//! Wire protocol for the `rdf serve` daemon.
//!
//! One request per line, one response per line — line-delimited JSON
//! over a unix or tcp socket (see `docs/PROTOCOL.md` for the normative
//! schema). This crate holds only the *protocol*: request/response
//! types, their JSON encoding/decoding (built on [`rdf_obs::json`], the
//! workspace's in-tree parser — the container is offline, no serde),
//! and the typed error envelope. The server loop, its session slot
//! (the last aligned store pair, kept loaded), its thread per
//! connection and its permits for heavy requests live in `rdf-cli`; a
//! future HTTP front end is a thin adapter over these same types.
//!
//! Framing rules:
//!
//! * every request and every response is exactly one `\n`-terminated
//!   JSON object — no length prefixes, no continuation lines;
//! * a malformed line yields an `ok:false` response with kind
//!   [`ErrorKind::BadRequest`]; the connection stays open;
//! * requests on one connection are answered in order;
//! * a connection past the server's cap gets one
//!   [`ErrorKind::Overloaded`] line and is closed.

#![deny(missing_docs)]

use rdf_obs::json::{self, escape, Json};
use std::fmt;

/// Environment variable the server and client consult for a default
/// socket address: `RDF_SOCKET=/path/to.sock` (unix) or
/// `RDF_SOCKET=tcp:HOST:PORT`.
pub const SOCKET_ENV: &str = "RDF_SOCKET";

/// A client request, one per line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `import`: parse N-Triples into a store on the server's
    /// filesystem (mirrors `rdf import`).
    Import {
        /// Input N-Triples path.
        input: String,
        /// Output `.rdfb` store path.
        output: String,
        /// Section layout: only `"fixed"`, the one graph-store layout
        /// and the default when `None`. The server answers the retired
        /// `"varint"` with a `bad_request`.
        layout: Option<String>,
        /// Per-request thread budget; `None` for the server default.
        threads: Option<usize>,
        /// Return the request's JSONL trace in the response.
        trace: bool,
    },
    /// `info`: header and per-section summary, optionally with a
    /// bisimulation quotient summary (mirrors `rdf info`).
    Info {
        /// Store path.
        path: String,
        /// Compute the `--bisim` summary.
        bisim: bool,
        /// Retired: the streaming engine was removed, and the server
        /// answers `true` with a `bad_request` error.
        streaming: bool,
        /// Per-request thread budget; `None` for the server default.
        threads: Option<usize>,
        /// Return the request's JSONL trace in the response.
        trace: bool,
    },
    /// `align`: the full alignment pipeline over two inputs (mirrors
    /// `rdf align`).
    Align {
        /// Source input path (store or N-Triples).
        source: String,
        /// Target input path (store or N-Triples).
        target: String,
        /// Method name: `trivial` | `deblank` | `hybrid` | `overlap`.
        method: String,
        /// Overlap threshold θ (overlap method only).
        theta: Option<f64>,
        /// Retired: the streaming engine was removed, and the server
        /// answers `true` with a `bad_request` error.
        streaming: bool,
        /// Per-request thread budget; `None` for the server default.
        threads: Option<usize>,
        /// Return the request's JSONL trace in the response.
        trace: bool,
    },
    /// `stats`: server counters — uptime, requests served and failed,
    /// worker-gang size, session-slot hits and misses.
    Stats,
}

impl Request {
    /// The operation name as it appears on the wire.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Import { .. } => "import",
            Request::Info { .. } => "info",
            Request::Align { .. } => "align",
            Request::Stats => "stats",
        }
    }

    /// Parse one request line. Any failure (bad JSON, missing or
    /// ill-typed field, unknown op) is a [`ProtocolError`] whose
    /// message names the offending part — the server echoes it back in
    /// a [`ErrorKind::BadRequest`] envelope.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let v = json::parse(line)
            .map_err(|e| ProtocolError::new(format!("bad JSON: {e}")))?;
        if v.as_obj().is_none() {
            return Err(ProtocolError::new("request must be a JSON object"));
        }
        let op = req_str(&v, "op")?;
        match op.as_str() {
            // Unknown fields are ignored, but this one was a real
            // field: silently dropping it would write one file where
            // the client asked for a sharded store.
            "import" if v.get("shards").is_some() => {
                Err(ProtocolError::new(
                    "field \"shards\" is not supported: sharded stores \
                     were removed; import writes one .rdfb file",
                ))
            }
            "import" => Ok(Request::Import {
                input: req_str(&v, "input")?,
                output: req_str(&v, "output")?,
                layout: opt_str(&v, "layout")?,
                threads: opt_usize(&v, "threads")?,
                trace: opt_bool(&v, "trace")?.unwrap_or(false),
            }),
            "info" => Ok(Request::Info {
                path: req_str(&v, "path")?,
                bisim: opt_bool(&v, "bisim")?.unwrap_or(false),
                streaming: opt_bool(&v, "streaming")?.unwrap_or(false),
                threads: opt_usize(&v, "threads")?,
                trace: opt_bool(&v, "trace")?.unwrap_or(false),
            }),
            "align" => Ok(Request::Align {
                source: req_str(&v, "source")?,
                target: req_str(&v, "target")?,
                method: opt_str(&v, "method")?
                    .unwrap_or_else(|| "hybrid".to_string()),
                theta: opt_f64(&v, "theta")?,
                streaming: opt_bool(&v, "streaming")?.unwrap_or(false),
                threads: opt_usize(&v, "threads")?,
                trace: opt_bool(&v, "trace")?.unwrap_or(false),
            }),
            "stats" => Ok(Request::Stats),
            other => Err(ProtocolError::new(format!(
                "unknown op {other:?} (expected import|info|align|stats)"
            ))),
        }
    }

    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = format!("{{\"op\":\"{}\"", self.op());
        match self {
            Request::Import {
                input,
                output,
                layout,
                threads,
                trace,
            } => {
                push_str_field(&mut s, "input", input);
                push_str_field(&mut s, "output", output);
                if let Some(l) = layout {
                    push_str_field(&mut s, "layout", l);
                }
                push_opt_num(&mut s, "threads", *threads);
                push_bool_if(&mut s, "trace", *trace);
            }
            Request::Info {
                path,
                bisim,
                streaming,
                threads,
                trace,
            } => {
                push_str_field(&mut s, "path", path);
                push_bool_if(&mut s, "bisim", *bisim);
                push_bool_if(&mut s, "streaming", *streaming);
                push_opt_num(&mut s, "threads", *threads);
                push_bool_if(&mut s, "trace", *trace);
            }
            Request::Align {
                source,
                target,
                method,
                theta,
                streaming,
                threads,
                trace,
            } => {
                push_str_field(&mut s, "source", source);
                push_str_field(&mut s, "target", target);
                push_str_field(&mut s, "method", method);
                if let Some(t) = theta {
                    s.push_str(&format!(",\"theta\":{t}"));
                }
                push_bool_if(&mut s, "streaming", *streaming);
                push_opt_num(&mut s, "threads", *threads);
                push_bool_if(&mut s, "trace", *trace);
            }
            Request::Stats => {}
        }
        s.push('}');
        s
    }
}

/// What went wrong, machine-readably — the `error.kind` wire value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line itself was unusable (bad JSON, missing field,
    /// unknown op). The connection stays open.
    BadRequest,
    /// The operation ran and failed (missing file, corrupt store,
    /// unknown method, …) — same failures the one-shot CLI reports.
    Engine,
    /// The server itself misbehaved (a handler panicked).
    Internal,
    /// The server was at its connection cap: this reply is the
    /// connection's only line, and the server then closes it.
    Overloaded,
}

impl ErrorKind {
    /// Wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Engine => "engine",
            ErrorKind::Internal => "internal",
            ErrorKind::Overloaded => "overloaded",
        }
    }

    /// Parse a wire string.
    pub fn from_str_wire(s: &str) -> Option<ErrorKind> {
        match s {
            "bad_request" => Some(ErrorKind::BadRequest),
            "engine" => Some(ErrorKind::Engine),
            "internal" => Some(ErrorKind::Internal),
            "overloaded" => Some(ErrorKind::Overloaded),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One response line: success carrying the report text (byte-identical
/// to the one-shot CLI's stdout for the same operation), or a typed
/// error envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `{"ok":true,...}`.
    Ok {
        /// Echo of the request op.
        op: String,
        /// The report text — exactly what the one-shot CLI prints.
        report: String,
        /// Whether this `align`'s session came from the daemon's
        /// session slot.
        cached: bool,
        /// The request's JSONL trace, when `trace:true` was requested.
        trace: Option<String>,
    },
    /// `{"ok":false,"error":{...}}`.
    Err {
        /// Error category.
        kind: ErrorKind,
        /// Human-readable message (the CLI error text for
        /// [`ErrorKind::Engine`]).
        message: String,
    },
}

impl Response {
    /// A [`Response::Err`] from anything displayable.
    pub fn error(kind: ErrorKind, message: impl fmt::Display) -> Response {
        Response::Err {
            kind,
            message: message.to_string(),
        }
    }

    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Ok {
                op,
                report,
                cached,
                trace,
            } => {
                let mut s = format!(
                    "{{\"ok\":true,\"op\":\"{}\",\"cached\":{cached},\
                     \"report\":\"{}\"",
                    escape(op),
                    escape(report),
                );
                if let Some(t) = trace {
                    s.push_str(&format!(",\"trace\":\"{}\"", escape(t)));
                }
                s.push('}');
                s
            }
            Response::Err { kind, message } => format!(
                "{{\"ok\":false,\"error\":{{\"kind\":\"{}\",\
                 \"message\":\"{}\"}}}}",
                kind.as_str(),
                escape(message),
            ),
        }
    }

    /// Parse one response line (the client half).
    pub fn parse(line: &str) -> Result<Response, ProtocolError> {
        let v = json::parse(line)
            .map_err(|e| ProtocolError::new(format!("bad JSON: {e}")))?;
        match v.get("ok") {
            Some(Json::Bool(true)) => Ok(Response::Ok {
                op: req_str(&v, "op")?,
                report: req_str(&v, "report")?,
                cached: opt_bool(&v, "cached")?.unwrap_or(false),
                trace: opt_str(&v, "trace")?,
            }),
            Some(Json::Bool(false)) => {
                let err = v.get("error").ok_or_else(|| {
                    ProtocolError::new("missing \"error\" envelope")
                })?;
                let kind = err
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(ErrorKind::from_str_wire)
                    .ok_or_else(|| {
                        ProtocolError::new("bad \"error.kind\"")
                    })?;
                let message = err
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                Ok(Response::Err { kind, message })
            }
            _ => Err(ProtocolError::new("missing boolean \"ok\" field")),
        }
    }
}

/// A request or response line that does not follow the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    msg: String,
}

impl ProtocolError {
    fn new(msg: impl Into<String>) -> ProtocolError {
        ProtocolError { msg: msg.into() }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------- helpers

fn req_str(v: &Json, key: &str) -> Result<String, ProtocolError> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(ProtocolError::new(format!(
            "field {key:?} must be a string"
        ))),
        None => {
            Err(ProtocolError::new(format!("missing field {key:?}")))
        }
    }
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ProtocolError::new(format!(
            "field {key:?} must be a string"
        ))),
    }
}

fn opt_bool(v: &Json, key: &str) -> Result<Option<bool>, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(ProtocolError::new(format!(
            "field {key:?} must be a boolean"
        ))),
    }
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => match n.as_u64() {
            Some(u) => Ok(Some(u as usize)),
            None => Err(ProtocolError::new(format!(
                "field {key:?} must be a non-negative integer"
            ))),
        },
    }
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => match n.as_f64() {
            Some(f) => Ok(Some(f)),
            None => Err(ProtocolError::new(format!(
                "field {key:?} must be a number"
            ))),
        },
    }
}

fn push_str_field(s: &mut String, key: &str, val: &str) {
    s.push_str(&format!(",\"{key}\":\"{}\"", escape(val)));
}

fn push_opt_num(s: &mut String, key: &str, val: Option<usize>) {
    if let Some(n) = val {
        s.push_str(&format!(",\"{key}\":{n}"));
    }
}

fn push_bool_if(s: &mut String, key: &str, val: bool) {
    if val {
        s.push_str(&format!(",\"{key}\":true"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_all_ops() {
        let reqs = vec![
            Request::Import {
                input: "a.nt".into(),
                output: "a.rdfb".into(),
                layout: Some("fixed".into()),
                threads: Some(2),
                trace: true,
            },
            Request::Info {
                path: "a.rdfb".into(),
                bisim: true,
                streaming: false,
                threads: None,
                trace: false,
            },
            Request::Align {
                source: "v1.rdfb".into(),
                target: "v2.rdfb".into(),
                method: "overlap".into(),
                theta: Some(0.25),
                streaming: true,
                threads: Some(8),
                trace: true,
            },
            Request::Stats,
        ];
        for req in reqs {
            let line = req.to_line();
            let parsed = Request::parse(&line).unwrap();
            assert_eq!(parsed, req, "through the wire: {line}");
        }
    }

    #[test]
    fn align_defaults_method_to_hybrid() {
        let r = Request::parse(
            "{\"op\":\"align\",\"source\":\"a\",\"target\":\"b\"}",
        )
        .unwrap();
        match r {
            Request::Align {
                method,
                theta,
                streaming,
                threads,
                trace,
                ..
            } => {
                assert_eq!(method, "hybrid");
                assert_eq!(theta, None);
                assert!(!streaming);
                assert_eq!(threads, None);
                assert!(!trace);
            }
            other => panic!("expected align, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (line, needle) in [
            ("not json", "bad JSON"),
            ("42", "must be a JSON object"),
            ("{}", "missing field \"op\""),
            ("{\"op\":\"fly\"}", "unknown op \"fly\""),
            ("{\"op\":\"info\"}", "missing field \"path\""),
            ("{\"op\":\"info\",\"path\":7}", "must be a string"),
            (
                "{\"op\":\"info\",\"path\":\"x\",\"threads\":-1}",
                "non-negative integer",
            ),
            (
                "{\"op\":\"info\",\"path\":\"x\",\"trace\":\"yes\"}",
                "must be a boolean",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{line}: expected {needle:?} in {err}"
            );
        }
    }

    /// `shards` was a real import field; with the sharded layout gone
    /// it is rejected rather than ignored like an unknown field, so a
    /// client never gets one file where it asked for shards.
    #[test]
    fn import_with_shards_is_rejected() {
        let base = r#"{"op":"import","input":"a.nt","output":"a.rdfb""#;
        for shards in ["4", "1", "null"] {
            let line = format!(r#"{base},"shards":{shards}}}"#);
            let err = Request::parse(&line).unwrap_err();
            assert!(
                err.to_string().contains("sharded stores were removed"),
                "{line}: got {err}"
            );
        }
        assert!(matches!(
            Request::parse(&format!("{base}}}")),
            Ok(Request::Import { .. })
        ));
    }

    #[test]
    fn response_roundtrip_ok_and_error() {
        let ok = Response::Ok {
            op: "align".into(),
            report: "alignment report\n  line \"quoted\"\n".into(),
            cached: true,
            trace: Some("{\"ev\":\"span\"}\n".into()),
        };
        let parsed = Response::parse(&ok.to_line()).unwrap();
        assert_eq!(parsed, ok);

        let err =
            Response::error(ErrorKind::Engine, "store.rdfb: not found");
        let parsed = Response::parse(&err.to_line()).unwrap();
        assert_eq!(parsed, err);
    }

    #[test]
    fn error_kinds_roundtrip_the_wire() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Engine,
            ErrorKind::Internal,
            ErrorKind::Overloaded,
        ] {
            assert_eq!(ErrorKind::from_str_wire(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_str_wire("nope"), None);
    }

    /// The reply a connection past the server's cap gets, through the
    /// wire and back.
    #[test]
    fn overloaded_error_roundtrips_the_wire() {
        let resp = Response::error(
            ErrorKind::Overloaded,
            "64 connections open; retry after one closes",
        );
        let line = resp.to_line();
        assert!(
            line.contains(r#""kind":"overloaded""#),
            "wire name: {line}"
        );
        assert_eq!(Response::parse(&line).unwrap(), resp);
    }

    #[test]
    fn report_text_survives_the_wire_byte_for_byte() {
        // Control characters, quotes, backslashes, non-ASCII — the
        // byte-identity contract rides on this.
        let report = "tab\there\nquote\"back\\slash\nμ-bytes\u{1}\n";
        let resp = Response::Ok {
            op: "info".into(),
            report: report.into(),
            cached: false,
            trace: None,
        };
        match Response::parse(&resp.to_line()).unwrap() {
            Response::Ok { report: r, .. } => assert_eq!(r, report),
            other => panic!("expected ok, got {other:?}"),
        }
    }
}
