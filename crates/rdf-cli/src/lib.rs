//! Library half of the `rdf` command-line tool.
//!
//! Each subcommand is a plain function returning its report text, so the
//! end-to-end tests can call the exact code the binary runs (and compare
//! the binary's stdout against it byte-for-byte). Inputs may be `.rdfb`
//! stores or N-Triples text; the format is resolved by [`pipeline`]
//! from the file's magic bytes, never the extension.

#![warn(missing_docs)]

pub mod pipeline;
pub mod serve;
pub mod signals;

use crate::pipeline::{ctx, open_any, Input, Part};
use rdf_align::pipeline::{align_combined, Aligned, Method};
use rdf_align::refine::{verify_stable, Unstable};
use rdf_align::{RefineEngine, Threads};
use rdf_model::{CombinedGraph, GraphAppender, Vocab};
use rdf_obs::{record_rss, Recorder, RunReport};
use rdf_store::dict::{merge_labels, LabelMerge};
use rdf_store::{BorrowedStoreReader, Layout, StoreError, StoreInfo};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use pipeline::load_input;

/// Any failure surfaced to the CLI user, with file context baked into
/// the message.
#[derive(Debug)]
pub struct CliError(String);

impl CliError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        CliError(msg.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// A `--verify` run whose partition is not stable.
impl From<Unstable> for CliError {
    fn from(e: Unstable) -> Self {
        CliError(format!("--verify: {e}"))
    }
}

/// `rdf import <input.nt> <output.rdfb>` — stream-parse N-Triples
/// into one dictionary-encoded `.rdfb` store in the fixed-width layout.
/// The streaming parse+write is wrapped in one `import.run` span into
/// `rec`, split into `import.parse` and `import.write`, and the
/// `rss.parse.*` and `rss.end.*` gauges ([`record_rss`]) are recorded
/// as the parse and the command end; the report text is the same with
/// [`Recorder::disabled`].
///
/// The store is written to a temporary file beside `output` and renamed
/// over it only once complete, so a failed import leaves an existing
/// store untouched, and a reader that has the old store mapped keeps
/// its inode instead of seeing the file truncated under it.
pub fn import_traced(
    input: &Path,
    output: &Path,
    rec: &Recorder,
) -> Result<String, CliError> {
    let file = std::fs::File::open(input).map_err(|e| ctx(input, e))?;
    let reader = std::io::BufReader::new(file);
    let in_bytes = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
    let tmp = temp_beside(output);
    let out = std::fs::File::create(&tmp).map_err(|e| ctx(output, e))?;
    let mut sp = rec.span("import.run");
    sp.field("bytes_in", in_bytes);
    let out = std::io::BufWriter::new(out);
    let written = rdf_store::import_ntriples_traced(reader, out, rec)
        .map_err(|e| ctx(input, e))
        .and_then(|parsed| {
            std::fs::rename(&tmp, output).map_err(|e| ctx(output, e))?;
            Ok(parsed)
        });
    let imported = written.inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    sp.field("nodes", imported.nodes);
    sp.field("triples", imported.triples);
    drop(sp);
    record_rss(rec, "end");
    let out_bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "imported {} -> {}\n  nodes {} triples {} labels {}\n  {} bytes -> {} bytes\n",
        input.display(),
        output.display(),
        imported.nodes,
        imported.triples,
        imported.labels,
        in_bytes,
        out_bytes,
    ))
}

/// A fresh path in `output`'s directory for an import to write before
/// renaming it into place; unique per process and per call, so
/// concurrent imports to one output (daemon requests) never share it.
fn temp_beside(output: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = output
        .file_name()
        .map_or_else(|| "import".into(), |n| n.to_string_lossy());
    output.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Check the value of `import --layout` (or a served import's
/// `"layout"`): `fixed` is the one graph-store layout and the default,
/// so it changes nothing; `varint` is the retired layout and gets the
/// [`StoreError::RetiredLayout`] message.
pub fn check_layout(name: &str) -> Result<(), CliError> {
    match name {
        "fixed" => Ok(()),
        "varint" => Err(CliError::new(format!(
            "layout varint: {}",
            StoreError::RetiredLayout {
                version: Layout::Varint.version()
            }
        ))),
        other => Err(CliError::new(format!(
            "unknown layout {other:?} (expected fixed)"
        ))),
    }
}

/// `rdf export <input> <output.nt>` — write a store back out as
/// canonical (line-sorted) N-Triples.
pub fn export(input: &Path, output: &Path) -> Result<String, CliError> {
    let (vocab, graph) = open_any(input)?
        .read_graph()
        .map_err(|e| ctx(input, e))?;
    rdf_io::save_file(output, &graph, &vocab).map_err(|e| ctx(output, e))?;
    Ok(format!(
        "exported {} -> {}\n  nodes {} triples {}\n",
        input.display(),
        output.display(),
        graph.node_count(),
        graph.triple_count(),
    ))
}

/// `rdf info [--bisim [--threads N]] <file>` — header, counts and
/// per-section sizes; every section checksum is verified before this
/// returns.
///
/// With `bisim = Some(threads)`, graph stores additionally get a
/// maximal-bisimulation summary (quotient classes and rounds) computed
/// through the [`RefineEngine`] on the given thread configuration.
///
/// The container parse emits a `store.open` span, the `--bisim` view
/// its `store.section` spans (`NODE` and `TRPL`: bisimulation starts
/// from the labels alone) and the refinement its `refine.*` spans into
/// `rec`; the report text is the same with [`Recorder::disabled`].
///
/// With `verify` (`rdf info --bisim --verify`), the bisimulation
/// partition is certified by [`rdf_align::refine::verify_stable`] with
/// `X` = every node, and an unstable one is the error. A certified run
/// prints the same bytes as an unverified one.
///
/// `--bisim` reads no label kinds, so it does not check the RDF
/// conventions that `align` and `export` refuse a store for breaking
/// (a literal subject, a blank or literal predicate): bisimulation
/// needs only label equality.
pub fn info_traced(
    input: &Path,
    bisim: Option<Threads>,
    verify: bool,
    rec: &Arc<Recorder>,
) -> Result<String, CliError> {
    // One parse (one checksum pass) serves both the summary and the
    // `--bisim` view.
    let reader = open_any(input)?;
    let container = reader.container(rec).map_err(|e| ctx(input, e))?;
    let info = StoreInfo::of(&container);
    let kind = match info.header.kind {
        rdf_store::KIND_GRAPH => "graph store",
        rdf_store::KIND_ARCHIVE => "archive",
        _ => "unknown",
    };
    let [c0, c1, c2] = info.header.counts;
    let counts = match info.header.kind {
        rdf_store::KIND_GRAPH => {
            format!("labels {c0} nodes {c1} triples {c2}")
        }
        rdf_store::KIND_ARCHIVE => {
            format!("versions {c0} entities {c1} distinct-triples {c2}")
        }
        _ => format!("{c0} {c1} {c2}"),
    };
    let mut out = format!(
        "{}: RDFB v{} {kind}, {} bytes, checksums OK\n  {counts}\n",
        input.display(),
        info.header.version,
        info.file_bytes,
    );
    for (tag, bytes) in &info.sections {
        out.push_str(&format!(
            "  section {tag}  {bytes} bytes  [{}]\n",
            section_encoding(info.layout, tag),
        ));
    }
    if let Some(mode) = load_mode_label(&info) {
        out.push_str(&format!(
            "  layout {}, load mode {mode}\n",
            info.layout,
        ));
    }
    if let Some(threads) = bisim {
        if info.header.kind == rdf_store::KIND_GRAPH {
            // Zero-copy path: serve the labels and edge columns as a
            // view of the (mapped) store buffer; no `DICT` entry is read.
            let view = BorrowedStoreReader::view_in(&container, rec)
                .map_err(|e| ctx(input, e))?;
            let cols = view.out_columns();
            let mut engine =
                RefineEngine::with_recorder(threads, Arc::clone(rec));
            let outcome = engine.bisimulation_columns(view.labels(), &cols);
            if verify {
                let all = vec![true; view.node_count()];
                verify_stable(&outcome.partition, &cols, &all)?;
            }
            out.push_str(&bisim_line(
                outcome.partition.num_colors(),
                view.node_count(),
                outcome.rounds,
                engine.threads(),
            ));
        } else {
            out.push_str("  bisimulation: n/a (not a graph store)\n");
        }
    }
    Ok(out)
}

/// Render a graph store's load mode for `rdf info` (`None` for
/// archives). A widening load names the column width that forced it —
/// `widen (width 2)` — so operators can see *why* the zero-copy path
/// was skipped.
fn load_mode_label(info: &StoreInfo) -> Option<String> {
    Some(match (info.mode?, info.trpl_width) {
        (rdf_store::LoadMode::Widen, Some(w)) => format!("widen (width {w})"),
        (mode, _) => mode.to_string(),
    })
}

/// The encoding variant a section body uses under a given layout: the
/// fixed-width layout of graph stores re-encodes only the id columns
/// (`NODE`, `TRPL`); every other body stays varint (8-padded).
fn section_encoding(layout: Layout, tag: &str) -> &'static str {
    match (layout, tag) {
        (Layout::Fixed, "NODE" | "TRPL") => "fixed",
        _ => "varint",
    }
}

/// The one `info --bisim` summary line.
fn bisim_line(
    classes: u32,
    nodes: usize,
    rounds: usize,
    threads: usize,
) -> String {
    format!(
        "  bisimulation: {classes} classes / {nodes} nodes in {rounds} \
         rounds ({threads} threads)\n",
    )
}

/// Parse a `--method` argument and its optional overlap threshold
/// `--theta`, which must lie in (0, 1].
pub fn parse_method(
    name: &str,
    theta: Option<f64>,
) -> Result<Method, CliError> {
    // Written so that NaN fails too.
    if let Some(t) = theta.filter(|&t| !(t > 0.0 && t <= 1.0)) {
        return Err(CliError::new(format!(
            "theta {t} is outside (0, 1]"
        )));
    }
    match name {
        "trivial" => Ok(Method::Trivial),
        "deblank" => Ok(Method::Deblank),
        "hybrid" => Ok(Method::Hybrid),
        "overlap" => Ok(match theta {
            Some(t) => Method::overlap_with_theta(t),
            None => Method::overlap(),
        }),
        other => Err(CliError::new(format!(
            "unknown method {other:?} (expected trivial|deblank|hybrid|overlap)"
        ))),
    }
}

/// `rdf align` outcome: the full pipeline result plus input context.
pub struct AlignOutcome {
    /// Method name as given on the command line.
    pub method: String,
    /// Source path and (nodes, triples).
    pub source: (String, usize, usize),
    /// Target path and (nodes, triples).
    pub target: (String, usize, usize),
    /// The pipeline result (edge stats, node counts, unaligned nodes).
    pub aligned: Aligned,
}

impl AlignOutcome {
    /// Render the alignment report.
    pub fn render(&self) -> String {
        let a = &self.aligned;
        let (su, tu) =
            a.unaligned.iter().fold((0usize, 0usize), |(s, t), &n| {
                match a.combined.side(n) {
                    rdf_model::Side::Source => (s + 1, t),
                    rdf_model::Side::Target => (s, t + 1),
                }
            });
        format!(
            "alignment report (method = {})\n\
             \x20 source: {} (nodes {}, triples {})\n\
             \x20 target: {} (nodes {}, triples {})\n\
             \x20 aligned edge ratio    : {:.6} ({} / {} classes, {} common)\n\
             \x20 aligned edge instances: {} (source {}/{}, target {}/{})\n\
             \x20 aligned node classes  : {}\n\
             \x20 aligned nodes         : source {}/{}, target {}/{} (non-literal)\n\
             \x20 unaligned nodes       : {} (source {}, target {})\n",
            self.method,
            self.source.0,
            self.source.1,
            self.source.2,
            self.target.0,
            self.target.1,
            self.target.2,
            a.edges.ratio(),
            a.edges.source_classes,
            a.edges.target_classes,
            a.edges.common_classes,
            a.edges.aligned_instances(),
            a.edges.aligned_source_edges,
            a.edges.total_source_edges,
            a.edges.aligned_target_edges,
            a.edges.total_target_edges,
            a.nodes.aligned_classes,
            a.nodes.aligned_source_nodes,
            a.nodes.total_source_nodes,
            a.nodes.aligned_target_nodes,
            a.nodes.total_target_nodes,
            a.unaligned.len(),
            su,
            tu,
        )
    }
}

/// `rdf align [--method M] [--theta T] [--threads N] <source>
/// <target>` — run the full pipeline over two inputs (`.rdfb` stores
/// or N-Triples, mixed freely). Refinement runs on the configured
/// thread count; the reported metrics are bit-identical for every
/// count.
pub fn align(
    source: &Path,
    target: &Path,
    method_name: &str,
    theta: Option<f64>,
    threads: Threads,
) -> Result<AlignOutcome, CliError> {
    align_traced(
        source,
        target,
        method_name,
        theta,
        threads,
        false,
        &Arc::new(Recorder::disabled()),
    )
}

/// [`align`] with instrumentation: input loads emit store spans and
/// the pipeline emits `align.*` / `refine.*` spans into `rec`. The
/// rendered report is byte-identical to the untraced run — tracing is
/// a pure side channel.
///
/// With `verify` (`rdf align --verify`), every fixpoint the method
/// reached is certified by [`rdf_align::refine::verify_stable`]: the
/// blanks' for deblank, and for hybrid both that one and its own over
/// `UN(λ_Deblank)`. An unstable partition is the error; a certified
/// run renders the same report as an unverified one. Trivial runs no
/// refinement and overlap's weighted fixpoints have no certificate, so
/// `verify` with either is refused before any input is read.
pub fn align_traced(
    source: &Path,
    target: &Path,
    method_name: &str,
    theta: Option<f64>,
    threads: Threads,
    verify: bool,
    rec: &Arc<Recorder>,
) -> Result<AlignOutcome, CliError> {
    let method = parse_method(method_name, theta)?;
    if verify && !matches!(method, Method::Deblank | Method::Hybrid) {
        return Err(CliError::new(format!(
            "--verify needs --method deblank or hybrid, not {method_name}: \
             trivial runs no refinement, and overlap's weighted fixpoints \
             have no certificate"
        )));
    }
    let texts = matches!(method, Method::Overlap(_));
    let session =
        Session::load(Input::open(source)?, Input::open(target)?, texts, rec)?;
    record_rss(rec, "union");
    let outcome = session.align(source, target, method, threads, verify, rec);
    record_rss(rec, "end");
    outcome
}

/// The union of one `align`'s two inputs, loaded straight into one
/// graph whose labels are session ids: the ranks of both inputs'
/// labels in one merged hash order. `rdf align` loads one and aligns it
/// once; the daemon keeps the last one it loaded and aligns its union
/// once per request, building nothing before refinement.
///
/// Trivial, deblank and hybrid read only label equality and kind, so a
/// session holds no label text unless overlap, the one method that
/// reads it, asks: a session loaded with texts holds them as a
/// [`Vocab`] whose ids are the session's.
pub struct Session {
    /// Every session label's text, when loaded with texts.
    texts: Option<Vocab>,
    combined: CombinedGraph,
    /// The source's node and triple counts, for the report.
    source: (usize, usize),
    /// The target's node and triple counts, for the report.
    target: (usize, usize),
}

impl Session {
    /// The load step of `align`. Both inputs are opened: a store's
    /// container is checksummed, text is parsed into its own
    /// vocabulary. Their labels are joined by one streaming merge of
    /// their hash-ordered label streams (`store.merge`), which gives
    /// each input a map to session ids; with `texts` the merge also
    /// keeps every label's text (overlap needs it). Then the source and
    /// the target are appended through their maps to one union, whose
    /// columns are reserved once, from both stores' headers, before the
    /// first append. Each input is released once it is appended, and no
    /// per-version graph is kept. The union is completed inside one
    /// `align.union` span.
    pub fn load(
        source: Input<'_>,
        target: Input<'_>,
        texts: bool,
        rec: &Recorder,
    ) -> Result<Session, CliError> {
        let (s, t) = (source.declared_counts(), target.declared_counts());
        let (src, tgt) = (source.part(rec)?, target.part(rec)?);
        let mut vocab = texts.then(Vocab::new);
        let merge =
            merge_parts([&source, &target], [&src, &tgt], vocab.as_mut(), rec)?;
        let mut union = GraphAppender::new();
        union.reserve(s.0 + t.0, s.1 + t.1);
        let [ms, mt] = &merge.maps;
        let source_counts =
            src.append_into(source.path, ms, &merge.kinds, &mut union, rec)?;
        drop(src);
        drop(source);
        let target_counts =
            tgt.append_into(target.path, mt, &merge.kinds, &mut union, rec)?;
        drop(tgt);
        drop(target);
        let mut sp = rec.span("align.union");
        let combined =
            CombinedGraph::from_parts(union.finish(), source_counts.0);
        if sp.enabled() {
            sp.field("nodes", combined.graph().node_count());
            sp.field("triples", combined.graph().triple_count());
        }
        drop(sp);
        Ok(Session {
            texts: vocab,
            combined,
            source: source_counts,
            target: target_counts,
        })
    }

    /// Every session label's text, by session id, if the session was
    /// loaded with texts.
    pub fn texts(&self) -> Option<&Vocab> {
        self.texts.as_ref()
    }

    /// The union of the two inputs, source first.
    pub fn combined(&self) -> &CombinedGraph {
        &self.combined
    }

    /// The outcome step of `align`: run `method` over the session's
    /// union and keep the result with its input context. The paths
    /// name the inputs in the report. With `verify`, every fixpoint the
    /// method reached is certified first (see [`align_combined`]),
    /// which only deblank and hybrid allow. Overlap needs the
    /// session's texts, and without them is an error.
    pub fn align(
        &self,
        source: &Path,
        target: &Path,
        method: Method,
        threads: Threads,
        verify: bool,
        rec: &Arc<Recorder>,
    ) -> Result<AlignOutcome, CliError> {
        if matches!(method, Method::Overlap(_)) && self.texts().is_none() {
            return Err(CliError::new(
                "overlap reads label texts, and this session was loaded \
                 without them",
            ));
        }
        Ok(AlignOutcome {
            method: method.name().to_string(),
            source: (
                source.display().to_string(),
                self.source.0,
                self.source.1,
            ),
            target: (
                target.display().to_string(),
                self.target.0,
                self.target.1,
            ),
            aligned: align_combined(
                self.texts(),
                self.combined.clone(),
                method,
                threads,
                Arc::clone(rec),
                verify,
            )?,
        })
    }
}

/// Join the labels of two opened inputs with one
/// [`merge_labels`] inside one `store.merge` span; with `texts`, every
/// session label's text is interned into it in id order.
fn merge_parts(
    inputs: [&Input<'_>; 2],
    parts: [&Part<'_>; 2],
    mut texts: Option<&mut Vocab>,
    rec: &Recorder,
) -> Result<LabelMerge, CliError> {
    let mut sp = rec.span("store.merge");
    let mut streams = Vec::with_capacity(2);
    for (input, part) in inputs.iter().zip(parts) {
        streams.push(part.labels().map_err(|e| ctx(input.path, e))?);
    }
    let [a, b] = &mut streams[..] else {
        unreachable!("two inputs")
    };
    // Sized for the larger input, never the sum: the texts grow at most
    // once more, and a table sized for the sum would be half empty.
    if let Some(vocab) = texts.as_deref_mut() {
        let labels = a.len_hint().max(b.len_hint()) + 1;
        vocab.reserve(labels, parts[0].text_bytes().max(parts[1].text_bytes()));
    }
    let merge = merge_labels([a.as_mut(), b.as_mut()], texts)
        .map_err(|e| ctx(inputs[e.input].path, e.error))?;
    if sp.enabled() {
        sp.field("labels", merge.len() - 1);
        sp.field("source", merge.maps[0].len() - 1);
        sp.field("target", merge.maps[1].len() - 1);
        sp.field("shared", merge.shared);
    }
    Ok(merge)
}

/// `rdf stats <trace.jsonl>` — aggregate a `--trace` run (or re-render
/// its final report line) as a table of span, counter and gauge totals.
pub fn stats(trace: &Path) -> Result<String, CliError> {
    let text =
        std::fs::read_to_string(trace).map_err(|e| ctx(trace, e))?;
    let report = RunReport::from_jsonl(&text).map_err(|e| ctx(trace, e))?;
    Ok(report.render_table())
}

/// `rdf gen [--scale F] [--versions N] --out-dir DIR` — write the first
/// `N` versions of the seeded EFO-like dataset as N-Triples files
/// (`efo-v1.nt`, `efo-v2.nt`, …): the fixture generator for smoke tests.
/// `scale` must be finite and above 0.
pub fn gen(
    out_dir: &Path,
    scale: f64,
    versions: usize,
) -> Result<String, CliError> {
    if !(scale > 0.0 && scale.is_finite()) {
        return Err(CliError::new(format!(
            "--scale {scale} must be a finite number above 0"
        )));
    }
    let mut cfg = rdf_datagen::EfoConfig::default().scaled(scale);
    cfg.versions = versions.max(1);
    let ds = rdf_datagen::generate_efo(&cfg);
    std::fs::create_dir_all(out_dir).map_err(|e| ctx(out_dir, e))?;
    let mut out = String::new();
    for (i, v) in ds.versions.iter().enumerate() {
        let path = out_dir.join(format!("efo-v{}.nt", i + 1));
        rdf_io::save_file(&path, &v.graph, &ds.vocab)
            .map_err(|e| ctx(&path, e))?;
        out.push_str(&format!(
            "wrote {} (nodes {}, triples {})\n",
            path.display(),
            v.graph.node_count(),
            v.graph.triple_count(),
        ));
    }
    Ok(out)
}
