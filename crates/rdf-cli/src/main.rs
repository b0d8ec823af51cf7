//! `rdf` — the pipeline from the shell: N-Triples → store → alignment.
//!
//! ```text
//! rdf import [--trace PATH] <input.nt> <output.rdfb>
//! rdf export <input> <output.nt>
//! rdf info   [--bisim [--verify]] [--threads N] [--trace PATH] <file>
//! rdf align  [--method trivial|deblank|hybrid|overlap] [--theta T]
//!            [--threads N] [--verify] [--trace PATH] <source> <target>
//! rdf stats  <trace.jsonl>
//! rdf gen    [--scale F] [--versions N] --out-dir DIR
//! rdf serve  [--socket SOCK] [--threads N]
//! rdf request [--socket SOCK] [--trace-out PATH] <request-json>
//! ```
//!
//! A store is one `.rdfb` file, and `align` also accepts N-Triples
//! files, mixed freely (format is resolved from the magic bytes).
//! Refinement runs on the deterministic parallel engine: `--threads`
//! only changes wall-clock time, never the output. An unrecognised
//! `--flag` is an error (exit 2), never an input path.

use rdf_align::{Recorder, Threads};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: rdf <command> [options]

commands:
  import [--trace PATH] <input.nt> <output.rdfb>
                                    parse N-Triples (streaming) into one
                                    .rdfb store in the zero-copy
                                    fixed-width layout
  export <input> <output.nt>        write a store as canonical N-Triples
  info   [--bisim [--verify]] [--threads N] [--trace PATH] <file>
                                    header, counts, sections, checksums;
                                    --bisim adds a maximal-bisimulation
                                    summary (graph stores)
  align  [--method M] [--theta T] [--threads N] [--verify]
         [--trace PATH] <source> <target>
                                    align two graphs (stores or
                                    N-Triples, mixed freely);
                                    M = trivial|deblank|hybrid|overlap
                                    (default hybrid)
  stats  <trace.jsonl>              aggregate a --trace file into a
                                    table of span / counter / gauge
                                    totals (per-phase time breakdown)
  gen    [--scale F] [--versions N] --out-dir DIR
                                    write seeded EFO-like N-Triples fixtures
  serve  [--socket SOCK] [--threads N]
                                    run the alignment daemon: answer
                                    line-delimited JSON requests over a
                                    unix socket (or SOCK = tcp:HOST:PORT),
                                    keeping the last aligned store pair
                                    loaded; SIGTERM shuts it down
                                    cleanly (exit 0)
  request [--socket SOCK] [--trace-out PATH] <request-json>
                                    send one JSON request line to a
                                    running daemon and print the report
                                    (byte-identical to the one-shot
                                    command); see docs/PROTOCOL.md

threading:
  --threads N                       N = auto | integer from 1 to 256
                                    (default auto). Refinement output is
                                    identical for every N; only wall
                                    time changes. auto uses the
                                    RDF_THREADS environment variable when
                                    it holds such an integer, else all
                                    cores (at most 256).

certificate:
  --verify                          (align --method deblank|hybrid, and
                                    info --bisim) check every refinement
                                    fixpoint the command reached against
                                    Definition 4, exactly (no hashing).
                                    A stable partition prints the same
                                    bytes as without the flag; an
                                    unstable one exits 2 and names the
                                    class on stderr.

tracing:
  --trace PATH                      (import|info|align) append one JSONL
                                    event per timed span to PATH, plus a
                                    final aggregated report line. Setting
                                    RDF_TRACE=PATH traces without the
                                    flag. Tracing never changes a
                                    command's stdout — reports stay
                                    byte-identical.

Run `rdf <command> --help` for per-command details.

EXAMPLES
  rdf gen --scale 0.25 --versions 2 --out-dir /tmp/efo
  rdf import /tmp/efo/efo-v1.nt /tmp/efo/v1.rdfb
  rdf import /tmp/efo/efo-v2.nt /tmp/efo/v2.rdfb
  rdf info --bisim /tmp/efo/v1.rdfb
  rdf align --method hybrid --trace /tmp/efo/trace.jsonl /tmp/efo/v1.rdfb /tmp/efo/v2.rdfb
  rdf stats /tmp/efo/trace.jsonl
";

const HELP_IMPORT: &str = "\
usage: rdf import [--trace PATH] <input.nt> <output.rdfb>

Parse N-Triples (streaming, one block of lines resident at a time)
into one dictionary-encoded .rdfb store in the fixed-width layout (container
version 2), whose id columns load zero-copy (`rdf info` shows the
layout and load mode). `--layout fixed` is accepted and changes
nothing; `--layout varint` is an error, because the varint layout
(version 1) is retired and readers refuse it. --trace PATH (or
RDF_TRACE=PATH) appends timing events as JSONL; see `rdf stats`.

EXAMPLES
  rdf import /tmp/efo/efo-v1.nt /tmp/efo/v1.rdfb
";

const HELP_EXPORT: &str = "\
usage: rdf export <input> <output.nt>

Write a .rdfb store back out as canonical, line-sorted N-Triples.

EXAMPLES
  rdf export /tmp/efo/v1.rdfb /tmp/efo/v1-canonical.nt
";

const HELP_INFO: &str = "\
usage: rdf info [--bisim [--verify]] [--threads N] [--trace PATH] <file>

Report the container header, counts and per-section sizes; every
checksum is verified first. --bisim adds a maximal-bisimulation
summary (classes, rounds) for graph stores, computed on the
deterministic parallel engine; the line is byte-identical for every
--threads. --verify certifies that partition exactly (Definition 4,
X = every node) without changing the output; an unstable one exits 2
with the class named on stderr. --trace PATH (or
RDF_TRACE=PATH) appends load and refinement timing events as JSONL;
see `rdf stats`.

EXAMPLES
  rdf info /tmp/efo/v1.rdfb
  rdf info --bisim --threads 4 /tmp/efo/v1.rdfb
  rdf info --bisim --verify /tmp/efo/v1.rdfb
";

const HELP_ALIGN: &str = "\
usage: rdf align [--method M] [--theta T] [--threads N] [--verify]
                 [--trace PATH] <source> <target>

Align two graph versions and print the report of §5 metrics. Inputs
may be .rdfb stores or N-Triples text, mixed freely. M =
trivial|deblank|hybrid|overlap (default hybrid); --theta sets the
overlap threshold, in (0, 1]. The report is byte-identical at every --threads.
--verify certifies every refinement fixpoint the method reached
(Definition 4, checked exactly): deblank's over the blank nodes, and
for hybrid also its second stage's over UN(λ_Deblank). The report is
unchanged; an unstable partition exits 2 with the class named on
stderr. --verify with trivial (no refinement) or overlap (weighted
fixpoints, no certificate) is a usage error.
--trace PATH (or RDF_TRACE=PATH) appends load, union and per-round
refinement timing events as JSONL without changing the report; see
`rdf stats`.

EXAMPLES
  rdf align --method hybrid /tmp/efo/v1.rdfb /tmp/efo/v2.rdfb
  rdf align --method overlap --theta 0.5 /tmp/efo/v1.rdfb /tmp/efo/v2.rdfb
  rdf align --method deblank --verify /tmp/efo/v1.rdfb /tmp/efo/v2.rdfb
";

const HELP_STATS: &str = "\
usage: rdf stats <trace.jsonl>

Aggregate a --trace run into a table: one row per span family (count,
total ms, mean us), then counter and gauge totals. The input is the
JSONL file written by `rdf import|info|align --trace PATH` (or with
RDF_TRACE=PATH set); its format is specified in docs/TRACE_FORMAT.md.

EXAMPLES
  rdf align --trace /tmp/efo/trace.jsonl /tmp/efo/v1.rdfb /tmp/efo/v2.rdfb
  rdf stats /tmp/efo/trace.jsonl
";

const HELP_GEN: &str = "\
usage: rdf gen [--scale F] [--versions N] --out-dir DIR

Write the first N versions of the seeded EFO-like dataset as
N-Triples files (efo-v1.nt, efo-v2.nt, ...) — the fixture generator
for smoke tests and benchmarks. F (default 0.25) must be above 0.

EXAMPLES
  rdf gen --scale 0.25 --versions 2 --out-dir /tmp/efo
";

const HELP_SERVE: &str = "\
usage: rdf serve [--socket SOCK] [--threads N]

Run the long-lived alignment daemon. SOCK is a unix socket path or
tcp:HOST:PORT (default: the RDF_SOCKET environment variable). Clients
send one JSON object per line — ops import|info|align|stats, each with
an optional per-request thread budget and trace toggle — and get one
JSON response line back; `info` and `align` reports are byte-identical
to the one-shot commands' stdout. docs/PROTOCOL.md is the normative
wire spec.

The daemon keeps one session: the last pair of stores it aligned,
loaded as `rdf align` loads them and keyed by the content hash of
both. An align of the same pair, under any method, reuses it and
opens no store; any other pair replaces it. Each connection has its
own thread, up to 64; a connection past that gets an `overloaded`
error and is closed. import, info and align share max(2, N) permits
for --threads N (default auto), so at most that many compute at once;
stats never waits. SIGTERM or SIGINT answers the requests in flight,
ends idle connections and exits 0.

EXAMPLES
  rdf serve --socket /tmp/rdf.sock --threads 4 &
  rdf request --socket /tmp/rdf.sock '{\"op\":\"stats\"}'
";

const HELP_REQUEST: &str = "\
usage: rdf request [--socket SOCK] [--trace-out PATH] <request-json>

Send one request line to a running `rdf serve` daemon and print the
report text — byte-identical to the matching one-shot command. SOCK is
a unix socket path or tcp:HOST:PORT (default: the RDF_SOCKET
environment variable). With --trace-out PATH and \"trace\":true in the
request, the server's per-request JSONL trace is written to PATH
(readable by `rdf stats`). Protocol errors print as `rdf: serve
<kind>: <message>` and exit 2.

EXAMPLES
  rdf request --socket /tmp/rdf.sock '{\"op\":\"info\",\"path\":\"/tmp/efo/v1.rdfb\"}'
  rdf request --socket /tmp/rdf.sock '{\"op\":\"align\",\"source\":\"/tmp/efo/v1.rdfb\",\"target\":\"/tmp/efo/v2.rdfb\"}'
";

/// The value of `--threads`: `auto` or an integer from 1 to
/// [`rdf_par::MAX_THREADS`]; an error names the flag.
fn threads_arg(value: Option<&String>) -> Result<Threads, String> {
    let value = value.ok_or("--threads needs a value")?;
    Threads::parse(value).map_err(|e| format!("--threads: {e}"))
}

/// Whether the argument list asks for help.
fn wants_help(rest: &[String]) -> bool {
    rest.iter().any(|a| a == "--help" || a == "-h")
}

/// Resolve the tracing recorder for a command: the `--trace` flag wins,
/// else the `RDF_TRACE` environment variable, else tracing is disabled.
///
/// The trace file is opened *eagerly*, before any input is touched: an
/// unwritable trace path fails the whole command up front with an error
/// naming that path, instead of surfacing at the first flush after
/// minutes of work.
fn trace_recorder(
    flag: Option<PathBuf>,
) -> Result<Arc<Recorder>, String> {
    let path = flag
        .or_else(|| std::env::var_os("RDF_TRACE").map(PathBuf::from));
    match path {
        Some(p) => Recorder::jsonl_file(&p)
            .map(Arc::new)
            .map_err(|e| {
                format!("trace file {}: cannot open: {e}", p.display())
            }),
        None => Ok(Arc::new(Recorder::disabled())),
    }
}

/// Flush the trace (writing the final aggregated report line) after a
/// command completed. A no-op for the disabled recorder.
fn finish_trace(rec: &Recorder) -> Result<(), String> {
    rec.finish().map(|_| ()).map_err(|e| format!("trace: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("rdf: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args.split_first().ok_or_else(|| USAGE.to_string())?;
    match cmd.as_str() {
        "import" => {
            if wants_help(rest) {
                return Ok(HELP_IMPORT.to_string());
            }
            let mut trace: Option<PathBuf> = None;
            let mut inputs: Vec<PathBuf> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--layout" => {
                        let name =
                            it.next().ok_or("--layout needs a value")?;
                        rdf_cli::check_layout(name)
                            .map_err(|e| e.to_string())?;
                    }
                    "--trace" => {
                        trace = Some(PathBuf::from(
                            it.next().ok_or("--trace needs a path")?,
                        ));
                    }
                    other => inputs.push(positional(other, "import")?),
                }
            }
            let [input, output]: [PathBuf; 2] = inputs
                .try_into()
                .map_err(|_| "import takes exactly two paths")?;
            let rec = trace_recorder(trace)?;
            let out =
                rdf_cli::import_traced(&input, &output, &rec)
                    .map_err(|e| e.to_string())?;
            finish_trace(&rec)?;
            Ok(out)
        }
        "export" => {
            if wants_help(rest) {
                return Ok(HELP_EXPORT.to_string());
            }
            let [input, output] = two_paths(rest, "export")?;
            rdf_cli::export(&input, &output).map_err(|e| e.to_string())
        }
        "info" => {
            if wants_help(rest) {
                return Ok(HELP_INFO.to_string());
            }
            let mut bisim = false;
            let mut verify = false;
            let mut threads = Threads::Auto;
            let mut trace: Option<PathBuf> = None;
            let mut inputs: Vec<PathBuf> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--bisim" => bisim = true,
                    "--verify" => verify = true,
                    "--threads" => {
                        threads = threads_arg(it.next())?;
                    }
                    "--trace" => {
                        trace = Some(PathBuf::from(
                            it.next().ok_or("--trace needs a path")?,
                        ));
                    }
                    other => inputs.push(positional(other, "info")?),
                }
            }
            let [input]: [PathBuf; 1] = inputs
                .try_into()
                .map_err(|_| "info takes exactly one file")?;
            if verify && !bisim {
                return Err("--verify needs --bisim".into());
            }
            let rec = trace_recorder(trace)?;
            let out = rdf_cli::info_traced(
                &input,
                bisim.then_some(threads),
                verify,
                &rec,
            )
            .map_err(|e| e.to_string())?;
            finish_trace(&rec)?;
            Ok(out)
        }
        "align" => {
            if wants_help(rest) {
                return Ok(HELP_ALIGN.to_string());
            }
            let mut method = "hybrid".to_string();
            let mut verify = false;
            let mut theta: Option<f64> = None;
            let mut threads = Threads::Auto;
            let mut trace: Option<PathBuf> = None;
            let mut inputs: Vec<PathBuf> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--trace" => {
                        trace = Some(PathBuf::from(
                            it.next().ok_or("--trace needs a path")?,
                        ));
                    }
                    "--method" => {
                        method = it
                            .next()
                            .ok_or("--method needs a value")?
                            .clone();
                    }
                    "--theta" => {
                        theta = Some(
                            it.next()
                                .ok_or("--theta needs a number")?
                                .parse()
                                .map_err(|_| "--theta needs a number")?,
                        );
                    }
                    "--threads" => {
                        threads = threads_arg(it.next())?;
                    }
                    "--verify" => verify = true,
                    other => inputs.push(positional(other, "align")?),
                }
            }
            let [source, target]: [PathBuf; 2] = inputs
                .try_into()
                .map_err(|_| "align takes exactly two inputs")?;
            let rec = trace_recorder(trace)?;
            let outcome = rdf_cli::align_traced(
                &source, &target, &method, theta, threads, verify, &rec,
            )
            .map_err(|e| e.to_string())?;
            finish_trace(&rec)?;
            Ok(outcome.render())
        }
        "stats" => {
            if wants_help(rest) {
                return Ok(HELP_STATS.to_string());
            }
            let [trace] = match rest {
                [a] => [positional(a, "stats")?],
                _ => return Err("stats takes exactly one trace file".into()),
            };
            rdf_cli::stats(&trace).map_err(|e| e.to_string())
        }
        "gen" => {
            if wants_help(rest) {
                return Ok(HELP_GEN.to_string());
            }
            let mut scale = 0.25f64;
            let mut versions = 2usize;
            let mut out_dir: Option<PathBuf> = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--scale" => {
                        scale = it
                            .next()
                            .ok_or("--scale needs a number")?
                            .parse()
                            .map_err(|_| "--scale needs a number")?;
                    }
                    "--versions" => {
                        versions = it
                            .next()
                            .ok_or("--versions needs a count")?
                            .parse()
                            .map_err(|_| "--versions needs a count")?;
                    }
                    "--out-dir" => {
                        out_dir = Some(PathBuf::from(
                            it.next().ok_or("--out-dir needs a path")?,
                        ));
                    }
                    other => {
                        positional(other, "gen")?;
                        return Err(format!("unknown gen argument {other}"));
                    }
                }
            }
            let out_dir = out_dir.ok_or("gen requires --out-dir")?;
            rdf_cli::gen(&out_dir, scale, versions).map_err(|e| e.to_string())
        }
        "serve" => {
            if wants_help(rest) {
                return Ok(HELP_SERVE.to_string());
            }
            let mut socket: Option<String> = None;
            let mut threads = Threads::Auto;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => {
                        socket = Some(
                            it.next().ok_or("--socket needs a value")?.clone(),
                        );
                    }
                    "--threads" => {
                        threads = threads_arg(it.next())?;
                    }
                    other => {
                        positional(other, "serve")?;
                        return Err(format!("unknown serve argument {other}"));
                    }
                }
            }
            let socket = resolve_socket(socket)?;
            rdf_cli::serve::serve(&socket, threads)
                .map_err(|e| e.to_string())
        }
        "request" => {
            if wants_help(rest) {
                return Ok(HELP_REQUEST.to_string());
            }
            let mut socket: Option<String> = None;
            let mut trace_out: Option<PathBuf> = None;
            let mut lines: Vec<String> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--socket" => {
                        socket = Some(
                            it.next().ok_or("--socket needs a value")?.clone(),
                        );
                    }
                    "--trace-out" => {
                        trace_out = Some(PathBuf::from(
                            it.next().ok_or("--trace-out needs a path")?,
                        ));
                    }
                    other => {
                        positional(other, "request")?;
                        lines.push(other.to_string());
                    }
                }
            }
            let [line]: [String; 1] = lines.try_into().map_err(|_| {
                "request takes exactly one JSON request line"
            })?;
            let socket = resolve_socket(socket)?;
            rdf_cli::serve::request(&socket, &line, trace_out.as_deref())
                .map_err(|e| e.to_string())
        }
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

/// Resolve the daemon socket: `--socket` wins, else `RDF_SOCKET`.
fn resolve_socket(flag: Option<String>) -> Result<String, String> {
    flag.or_else(|| {
        std::env::var(rdf_serve::SOCKET_ENV)
            .ok()
            .filter(|s| !s.is_empty())
    })
    .ok_or_else(|| {
        format!(
            "no socket: pass --socket PATH (or tcp:HOST:PORT) or set {}",
            rdf_serve::SOCKET_ENV
        )
    })
}

/// A positional argument as a path — or, when it looks like a flag the
/// command does not know, the error that says so. Without this check a
/// mistyped `--flag` would become an input path and surface as a
/// confusing argument-count error.
fn positional(arg: &str, cmd: &str) -> Result<PathBuf, String> {
    if arg.starts_with("--") {
        Err(format!("unknown flag {arg} for {cmd}"))
    } else {
        Ok(PathBuf::from(arg))
    }
}

fn two_paths(rest: &[String], cmd: &str) -> Result<[PathBuf; 2], String> {
    let paths = rest
        .iter()
        .map(|a| positional(a, cmd))
        .collect::<Result<Vec<_>, _>>()?;
    paths
        .try_into()
        .map_err(|_| format!("{cmd} takes exactly two paths"))
}
