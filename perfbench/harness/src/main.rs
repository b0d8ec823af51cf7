//! The compiled half of the benchmark in `perfbench/` (see its README).
//!
//! ```text
//! perfbench-harness gen --seed N --scale F --out-dir DIR
//! perfbench-harness trace
//! ```
//!
//! `gen` writes the seeded EFO-like version pair (`efo-v1.nt`,
//! `efo-v2.nt`) exactly as `rdf gen` does for the default seed, and
//! prints each version's node and triple counts as JSON.
//!
//! `trace` runs inside a fixture directory holding `v1.rdfb`, `v2.rdfb`
//! (fixed layout, imported by the CLI) and `efo-v2.nt`. It times each
//! layer from the outside, by calling that layer's public functions in
//! the order the `rdf` binary and the daemon call them, and prints one
//! JSON object: per-layer metrics plus the reports it rendered, which
//! `run.py` compares byte-for-byte with the CLI's to prove the traced
//! pass did the same work. The hybrid alignment the workloads run comes
//! first, in a fresh process, so its resident-memory deltas are clean;
//! overlap at two threads and then one follows.

use rdf_align::metrics::{edge_stats, node_counts};
use rdf_align::partition::unaligned_nodes;
use rdf_align::{
    hybrid_partition_with, overlap_align_with, Aligned, Method, OverlapConfig, RefineEngine,
    Threads, WeightedPartition,
};
use rdf_cli::serve::{handle_request, ServeState, DEFAULT_CACHE_BYTES};
use rdf_cli::AlignOutcome;
use rdf_model::{rebase_into, CombinedGraph, Vocab};
use rdf_obs::json::{self, escape};
use rdf_obs::Recorder;
use rdf_serve::{Request, Response};
use rdf_store::{BorrowedStoreReader, Layout};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("trace") => trace(),
        _ => Err("usage: perfbench-harness gen --seed N --scale F \
                  --out-dir DIR | trace"
            .to_string()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench-harness: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The value following `--name`, if any.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn gen(args: &[String]) -> Result<String, String> {
    let seed: u64 = flag(args, "--seed")
        .ok_or("gen needs --seed")?
        .parse()
        .map_err(|_| "--seed needs an unsigned integer")?;
    let scale: f64 = flag(args, "--scale")
        .ok_or("gen needs --scale")?
        .parse()
        .map_err(|_| "--scale needs a number")?;
    let dir = Path::new(flag(args, "--out-dir").ok_or("gen needs --out-dir")?);
    // `rdf gen --scale S` generates two versions from the default seed;
    // only the seed differs here.
    let mut cfg = rdf_datagen::EfoConfig::default().scaled(scale);
    cfg.versions = 2;
    cfg.seed = seed;
    let ds = rdf_datagen::generate_efo(&cfg);
    std::fs::create_dir_all(dir).map_err(err)?;
    // Serialising each version is independent work: write both at once.
    std::thread::scope(|s| {
        let jobs: Vec<_> = ds
            .versions
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let path = dir.join(format!("efo-v{}.nt", i + 1));
                let vocab = &ds.vocab;
                s.spawn(move || {
                    rdf_io::save_file(&path, &v.graph, vocab)
                        .map_err(|e| format!("{}: {e}", path.display()))
                })
            })
            .collect();
        jobs.into_iter()
            .map(|j| j.join().map_err(|_| "writer panicked".to_string())?)
            .collect::<Result<Vec<()>, String>>()
    })?;
    let counts: Vec<String> = ds
        .versions
        .iter()
        .enumerate()
        .map(|(i, v)| {
            format!(
                "\"v{}\":{{\"nodes\":{},\"triples\":{}}}",
                i + 1,
                v.graph.node_count(),
                v.graph.triple_count()
            )
        })
        .collect();
    Ok(format!("{{{}}}", counts.join(",")))
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MiB.
fn status_mib(field: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// An in-memory JSONL sink for the recorder handed to the store decode.
#[derive(Clone, Default)]
struct TraceBuf(Arc<Mutex<Vec<u8>>>);

impl Write for TraceBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock is never held across a panic")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Total microseconds of the `store.section` spans for `DICT` in a JSONL
/// trace, in milliseconds.
fn dict_section_ms(trace: &[u8]) -> f64 {
    String::from_utf8_lossy(trace)
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|v| {
            v.get("name").and_then(|n| n.as_str()) == Some("store.section")
                && v.get("section").and_then(|s| s.as_str()) == Some("DICT")
        })
        .filter_map(|v| v.get("us").and_then(|u| u.as_f64()))
        .sum::<f64>()
        / 1e3
}

/// Layer times of one `rdf align` run, replayed in-process.
#[derive(Default)]
struct OpTrace {
    wall_ms: f64,
    sniff_ms: f64,
    read_ms: f64,
    decode_ms: f64,
    dict_ms: f64,
    rebase_ms: f64,
    union_ms: f64,
    /// Refinement (hybrid) or the whole overlap alignment (overlap).
    method_ms: f64,
    rounds: usize,
    metrics_ms: f64,
    render_ms: f64,
    /// Dropping the decoded stores after each rebase.
    drop_decoded_ms: f64,
    /// Dropping the session graphs, vocabulary and `Aligned` at the end.
    drop_final_ms: f64,
    labels: usize,
    load_mib: f64,
    union_mib: f64,
    refine_mib: f64,
    candidates: usize,
    confirmed: usize,
    report: String,
}

/// Replay `rdf align --method <method> --threads <threads> v1.rdfb
/// v2.rdfb` the way `rdf_cli::align_traced` and `main` run it: per
/// input sniff, read, decode, rebase and drop the decoded store; then
/// union, the method, the §5 metrics, the drop of the session graphs,
/// the render and the drop of the outcome. `between` runs after the
/// metrics, outside the timed wall, with the union and the vocabulary.
fn replay_align(
    method_name: &str,
    threads: Threads,
    between: impl FnOnce(&CombinedGraph, &Vocab),
) -> Result<OpTrace, String> {
    let method = rdf_cli::parse_method(method_name, None).map_err(err)?;
    let mut t = OpTrace::default();
    let rss0 = status_mib("VmRSS");
    let t0 = Instant::now();
    let mut vocab = Vocab::new();
    let mut graphs = Vec::new();
    for name in ["v1.rdfb", "v2.rdfb"] {
        let path = Path::new(name);
        let s = Instant::now();
        let is_store = rdf_cli::pipeline::is_store(path).map_err(err)?;
        t.sniff_ms += ms_since(s);
        if !is_store {
            return Err(format!("{name}: not a store"));
        }
        let s = Instant::now();
        let reader = rdf_cli::pipeline::open_any(path).map_err(err)?;
        t.read_ms += ms_since(s);
        let buf = TraceBuf::default();
        let rec = Recorder::jsonl_writer(Box::new(buf.clone()));
        let s = Instant::now();
        let (store_vocab, graph) = reader.read_graph_traced(threads, &rec).map_err(err)?;
        t.decode_ms += ms_since(s);
        rec.finish().map_err(err)?;
        t.dict_ms += dict_section_ms(&buf.0.lock().expect("trace buffer lock is never poisoned"));
        let s = Instant::now();
        let g = rebase_into(&mut vocab, &store_vocab, &graph);
        t.rebase_ms += ms_since(s);
        let s = Instant::now();
        drop((reader, store_vocab, graph));
        t.drop_decoded_ms += ms_since(s);
        graphs.push(g);
    }
    let g2 = graphs.pop().expect("two inputs were loaded");
    let g1 = graphs.pop().expect("two inputs were loaded");
    let rss_load = status_mib("VmRSS");
    t.load_mib = rss_load - rss0;
    t.labels = vocab.len();

    let mut engine = RefineEngine::new(threads);
    let s = Instant::now();
    let combined = CombinedGraph::union(&vocab, &g1, &g2);
    t.union_ms = ms_since(s);
    let rss_union = status_mib("VmRSS");
    t.union_mib = rss_union - rss_load;

    let s = Instant::now();
    let weighted = match method {
        Method::Hybrid => {
            let h = hybrid_partition_with(&combined, &mut engine);
            t.rounds = h.rounds;
            WeightedPartition::zero(h.partition)
        }
        Method::Overlap(cfg) => {
            let o = overlap_align_with(&combined, &vocab, cfg, &mut engine);
            t.rounds = o.rounds.len();
            t.candidates = o.rounds.iter().map(|r| r.stats.candidates).sum();
            t.confirmed = o.rounds.iter().map(|r| r.stats.confirmed).sum();
            o.weighted
        }
        other => return Err(format!("method {other:?} is not benchmarked")),
    };
    t.method_ms = ms_since(s);
    t.refine_mib = status_mib("VmRSS") - rss_union;

    let s = Instant::now();
    let edges = edge_stats(&weighted.partition, &combined);
    let nodes = node_counts(&weighted.partition, &combined);
    let unaligned = unaligned_nodes(&weighted.partition, &combined);
    t.metrics_ms = ms_since(s);

    let paused = Instant::now();
    between(&combined, &vocab);
    let pause_ms = ms_since(paused);

    let outcome = AlignOutcome {
        method: method_name.to_string(),
        source: ("v1.rdfb".to_string(), g1.node_count(), g1.triple_count()),
        target: ("v2.rdfb".to_string(), g2.node_count(), g2.triple_count()),
        aligned: Aligned {
            combined,
            weighted,
            edges,
            nodes,
            unaligned,
        },
    };
    let s = Instant::now();
    drop((g1, g2, vocab));
    t.drop_final_ms += ms_since(s);
    let s = Instant::now();
    t.report = outcome.render();
    t.render_ms = ms_since(s);
    let s = Instant::now();
    drop(outcome);
    t.drop_final_ms += ms_since(s);
    t.wall_ms = ms_since(t0) - pause_ms;
    Ok(t)
}

/// Milliseconds of `f`, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let s = Instant::now();
    let out = f();
    (ms_since(s), out)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The number after `word` in a whitespace-separated text.
fn number_after(text: &str, word: &str) -> Option<f64> {
    let mut it = text.split_whitespace();
    it.by_ref().find(|w| *w == word)?;
    it.next()?.parse().ok()
}

fn trace() -> Result<String, String> {
    let hybrid = replay_align("hybrid", Threads::Fixed(1), |_, _| {})?;
    let peak_mib = status_mib("VmHWM");
    // Overlap at two threads, then at one on the same union: the parallel
    // engine's speed-up.
    let mut overlap_t1_ms = 0.0;
    let overlap = replay_align("overlap", Threads::Fixed(2), |combined, vocab| {
        let mut engine = RefineEngine::new(Threads::Fixed(1));
        overlap_t1_ms =
            timed(|| overlap_align_with(combined, vocab, OverlapConfig::default(), &mut engine)).0;
    })?;

    // rdf-io: the streaming N-Triples parse behind `rdf import`.
    let nt = Path::new("efo-v2.nt");
    let nt_bytes = std::fs::metadata(nt).map_err(err)?.len() as f64;
    let (parse_ms, parsed) = timed(|| {
        let mut v = Vocab::new();
        let reader = BufReader::new(File::open(nt)?);
        rdf_io::parse_graph_reader(reader, &mut v)
            .map(|g| (v, g))
            .map_err(|e| std::io::Error::other(e.to_string()))
    });
    drop(parsed.map_err(err)?);

    // rdf-store: the import behind `rdf import --layout fixed`.
    let imported = Path::new("trace-import.rdfb");
    let (import_ms, done) = timed(|| -> Result<(), String> {
        let out = BufWriter::new(File::create(imported).map_err(err)?);
        let input = BufReader::new(File::open(nt).map_err(err)?);
        rdf_store::import_ntriples_layout(input, out, Layout::Fixed)
            .map(drop)
            .map_err(err)
    });
    done?;
    let import_identical =
        std::fs::read(imported).map_err(err)? == std::fs::read("v2.rdfb").map_err(err)?;
    std::fs::remove_file(imported).map_err(err)?;

    // rdf-store view + rdf-align bisimulation: `rdf info --bisim`.
    let (view_ms, opened) = timed(|| BorrowedStoreReader::open("v2.rdfb"));
    let breader = opened.map_err(err)?;
    let (more_ms, viewed) = timed(|| breader.read_view());
    let (_view_vocab, view) = viewed.map_err(err)?;
    let view_ms = view_ms + more_ms;
    let mut engine = RefineEngine::new(Threads::Fixed(1));
    let (bisim_ms, bisim) = timed(|| {
        let cols = view.out_columns();
        engine.bisimulation_columns(view.labels(), &cols)
    });
    let bisim_line = format!(
        "  bisimulation: {} classes / {} nodes in {} rounds ({} threads)\n",
        bisim.partition.num_colors(),
        view.node_count(),
        bisim.rounds,
        engine.threads(),
    );
    drop(view);
    drop(breader);

    // The daemon's request handler, in-process: one cold align fills the
    // cache, then warm aligns replay what `rdf serve` does per request.
    let state = Arc::new(ServeState::new(Threads::Fixed(2), 2, DEFAULT_CACHE_BYTES));
    let req = Request::Align {
        source: "v1.rdfb".into(),
        target: "v2.rdfb".into(),
        method: "hybrid".into(),
        theta: None,
        streaming: false,
        threads: Some(1),
        trace: false,
    };
    let (serve_cold_ms, cold) = timed(|| handle_request(&state, req.clone()));
    let mut warm_ms = Vec::new();
    let mut served = cold;
    for _ in 0..2 {
        let (ms, resp) = timed(|| handle_request(&state, req.clone()));
        warm_ms.push(ms);
        served = resp;
    }
    let served_report = match &served {
        Response::Ok { report, .. } => report.clone(),
        Response::Err { kind, message } => {
            return Err(format!("served align failed: {kind}: {message}"))
        }
    };
    let stats = match handle_request(&state, Request::Stats) {
        Response::Ok { report, .. } => report,
        Response::Err { message, .. } => return Err(message),
    };
    let hits = number_after(&stats, "hits").ok_or("stats: no hits")?;
    let misses = number_after(&stats, "misses").ok_or("stats: no misses")?;
    let handle_align_ms = median(warm_ms);
    let pipeline_ms = hybrid.rebase_ms
        + hybrid.union_ms
        + hybrid.method_ms
        + hybrid.metrics_ms
        + hybrid.render_ms
        + hybrid.drop_final_ms;
    drop(state);

    let line = req.to_line();
    let reps = 200;
    let (proto_ms, parsed_ok) = timed(|| {
        (0..reps).all(|_| {
            std::hint::black_box(served.to_line());
            Request::parse(&line).is_ok()
        })
    });
    if !parsed_ok {
        return Err("protocol: request line does not parse".into());
    }

    let m = &hybrid;
    let attributed = m.sniff_ms
        + m.read_ms
        + m.decode_ms
        + m.rebase_ms
        + m.drop_decoded_ms
        + m.union_ms
        + m.method_ms
        + m.metrics_ms
        + m.render_ms
        + m.drop_final_ms;
    let metrics: Vec<(&str, f64)> = vec![
        ("cli.sniff_ms", m.sniff_ms),
        ("cli.render_ms", m.render_ms),
        ("cli.teardown_ms", m.drop_decoded_ms + m.drop_final_ms),
        ("store.read_ms", m.read_ms),
        ("store.decode_ms", m.decode_ms),
        ("store.dict_ms", m.dict_ms),
        ("store.view_ms", view_ms),
        ("store.import_ms", import_ms),
        ("io.parse_ms", parse_ms),
        ("io.parse_mb_per_s", nt_bytes / 1e6 / (parse_ms / 1e3)),
        ("model.rebase_ms", m.rebase_ms),
        ("model.union_ms", m.union_ms),
        ("model.labels", m.labels as f64),
        ("align.refine_ms", hybrid.method_ms),
        ("align.refine_rounds", hybrid.rounds as f64),
        ("align.overlap_ms", overlap.method_ms),
        ("align.overlap_rounds", overlap.rounds as f64),
        ("align.overlap_candidates", overlap.candidates as f64),
        ("align.overlap_confirmed", overlap.confirmed as f64),
        (
            "align.overlap_confirm_ratio",
            overlap.confirmed as f64 / overlap.candidates.max(1) as f64,
        ),
        ("align.metrics_ms", m.metrics_ms),
        ("align.bisim_ms", bisim_ms),
        ("align.bisim_rounds", bisim.rounds as f64),
        ("par.overlap_t1_over_t2", overlap_t1_ms / overlap.method_ms),
        ("serve.cold_align_ms", serve_cold_ms),
        ("serve.handle_align_ms", handle_align_ms),
        ("serve.overhead_ms", handle_align_ms - pipeline_ms),
        ("serve.hits", hits),
        ("serve.misses", misses),
        ("serve.hit_ratio", hits / (hits + misses).max(1.0)),
        ("serve.protocol_us", proto_ms * 1e3 / reps as f64),
        ("mem.load_mib", m.load_mib),
        ("mem.union_mib", m.union_mib),
        ("mem.refine_mib", m.refine_mib),
        ("mem.peak_mib", peak_mib),
        ("unattributed_ms", m.wall_ms - attributed),
        ("op_wall_ms", m.wall_ms),
    ];
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    Ok(format!(
        "{{\"metrics\":{{{}}},\"align_report\":\"{}\",\
         \"served_report\":\"{}\",\"bisim_line\":\"{}\",\
         \"import_identical\":{import_identical}}}",
        metrics.join(","),
        escape(&m.report),
        escape(&served_report),
        escape(&bisim_line),
    ))
}
