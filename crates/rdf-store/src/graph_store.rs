//! Saving and loading a dictionary-encoded [`TripleGraph`] (`.rdfb`,
//! content kind [`KIND_GRAPH`]).
//!
//! A graph container holds four sections — `DICT` (label dictionary),
//! `NODE` (per-node dictionary ids), `TRPL` (sorted varint-delta
//! triples) and `BNAM` (document-local blank-node names); their exact
//! byte layouts are specified in `docs/FORMAT.md` §3.
//!
//! Labels are remapped to *dense* ids in ascending first-use order before
//! writing, so a store written from a freshly parsed graph has exactly
//! the parse's interning order, and `load(save(parse(text)))` rebuilds a
//! graph byte-identical to `parse(text)` — same node ids, same label ids,
//! same CSR layout — without hashing a single string per node or triple.
//!
//! The section decoders below are shared with the zero-copy reader
//! ([`crate::borrowed`]), so both readers accept exactly the same bytes.

use crate::container::{
    Container, ContainerWriter, Header, Layout, KIND_GRAPH, SECTION_OVERHEAD,
};
use crate::dict::{read_dict, read_string, write_dict};
use crate::error::StoreError;
use crate::borrowed::LoadMode;
use crate::fixed::{
    check_pad8, decode_node_fixed, decode_trpl_fixed, encode_node_fixed_into,
    encode_trpl_fixed_into, pad8, parse_fixed_body,
};
use crate::varint::{
    read_varint_u32, read_varint_usize, write_varint,
};
use rdf_model::{
    FxHashMap, LabelId, LabelKind, NodeId, RdfGraph, Triple, TripleGraph,
    Vocab,
};
use rdf_obs::{Recorder, SpanGuard};
use rdf_par::Threads;
use std::io::Write;
use std::path::Path;

pub(crate) const TAG_DICT: [u8; 4] = *b"DICT";
pub(crate) const TAG_NODE: [u8; 4] = *b"NODE";
pub(crate) const TAG_TRPL: [u8; 4] = *b"TRPL";
pub(crate) const TAG_BNAM: [u8; 4] = *b"BNAM";

/// The encoded section bodies other than `TRPL`: dictionary, per-node
/// labels, and blank-node names.
struct GlobalSections {
    pub dict: Vec<u8>,
    pub node: Vec<u8>,
    pub bnam: Vec<u8>,
    /// Number of dictionary entries (including the implicit blank).
    pub dict_count: u64,
}

/// Encode the `DICT`, `NODE` and `BNAM` bodies for a graph, remapping
/// label ids onto a dense dictionary (0 stays the blank label, the rest
/// keep their relative first-interned order — a graph parsed into a
/// fresh vocab maps identically).
fn encode_global_sections(
    vocab: &Vocab,
    graph: &RdfGraph,
    layout: Layout,
) -> Result<GlobalSections, StoreError> {
    let g = graph.graph();

    let mut used: Vec<LabelId> = g.labels_raw().to_vec();
    used.sort_unstable();
    used.dedup();
    if used.first() != Some(&LabelId::BLANK) {
        used.insert(0, LabelId::BLANK);
    }
    let mut dense = vec![u32::MAX; vocab.len()];
    for (new, old) in used.iter().enumerate() {
        dense[old.index()] = new as u32;
    }

    let mut dict = Vec::new();
    write_dict(&mut dict, vocab, used[1..].iter().copied())?;

    let mut node = Vec::new();
    match layout {
        Layout::Varint => {
            write_varint(&mut node, g.node_count() as u64);
            for &label in g.labels_raw() {
                write_varint(&mut node, u64::from(dense[label.index()]));
            }
        }
        Layout::Fixed => {
            let remapped: Vec<LabelId> = g
                .labels_raw()
                .iter()
                .map(|l| LabelId(dense[l.index()]))
                .collect();
            encode_node_fixed_into(&mut node, &remapped);
        }
    }

    let mut names: Vec<(NodeId, &str)> = graph
        .blank_names()
        .iter()
        .map(|(&n, s)| (n, s.as_str()))
        .collect();
    names.sort_unstable_by_key(|&(n, _)| n);
    let mut bnam = Vec::new();
    write_varint(&mut bnam, names.len() as u64);
    let mut prev = 0u32;
    for (n, name) in names {
        write_varint(&mut bnam, u64::from(n.0 - prev));
        prev = n.0;
        write_varint(&mut bnam, name.len() as u64);
        bnam.extend_from_slice(name.as_bytes());
    }
    if layout == Layout::Fixed {
        // Layout v2's universal rule: every payload is padded to 8.
        pad8(&mut dict);
        pad8(&mut bnam);
    }

    Ok(GlobalSections {
        dict,
        node,
        bnam,
        dict_count: used.len() as u64,
    })
}

/// Encode a `TRPL` body. Varint layout: varint count, then
/// varint-deltas over the `(s, p, o)` sequence; fixed layout: three
/// padded columns ([`crate::fixed`]). The input must be sorted
/// ascending, as graph triple lists always are.
fn encode_trpl(triples: &[Triple], layout: Layout) -> Vec<u8> {
    let mut out = Vec::new();
    if layout == Layout::Fixed {
        encode_trpl_fixed_into(&mut out, triples);
        return out;
    }
    write_varint(&mut out, triples.len() as u64);
    let (mut prev_s, mut prev_p, mut prev_o) = (0u32, 0u32, 0u32);
    for t in triples {
        let ds = t.s.0 - prev_s;
        if ds > 0 {
            prev_p = 0;
            prev_o = 0;
        }
        let dp = t.p.0 - prev_p;
        if dp > 0 {
            prev_o = 0;
        }
        let dobj = t.o.0 - prev_o;
        write_varint(&mut out, u64::from(ds));
        write_varint(&mut out, u64::from(dp));
        write_varint(&mut out, u64::from(dobj));
        (prev_s, prev_p, prev_o) = (t.s.0, t.p.0, t.o.0);
    }
    out
}

/// Bounds-check store label ids against the decoded dictionary and
/// derive the per-node kind array. Shared by the varint and fixed
/// `NODE` decoders and the borrowed view path.
pub(crate) fn kinds_for_labels(
    labels: &[LabelId],
    vocab: &Vocab,
) -> Result<Vec<LabelKind>, StoreError> {
    let mut kinds = Vec::with_capacity(labels.len());
    for &label in labels {
        if label.index() >= vocab.len() {
            return Err(StoreError::Corrupt(format!(
                "node label id {} beyond dictionary of {}",
                label.0,
                vocab.len()
            )));
        }
        kinds.push(vocab.kind(label));
    }
    Ok(kinds)
}

/// Decode a `NODE` body into per-node labels + kinds against `vocab`,
/// dispatching on the container layout. With `expected`, the embedded
/// node count must match it exactly.
pub(crate) fn decode_node(
    node: &[u8],
    vocab: &Vocab,
    expected: Option<u64>,
    layout: Layout,
) -> Result<(Vec<LabelId>, Vec<LabelKind>), StoreError> {
    if layout == Layout::Fixed {
        let labels = decode_node_fixed(node, expected)?;
        let kinds = kinds_for_labels(&labels, vocab)?;
        return Ok((labels, kinds));
    }
    let mut pos = 0usize;
    let node_count = read_varint_usize(node, &mut pos)?;
    if let Some(exp) = expected {
        if node_count as u64 != exp {
            return Err(StoreError::Corrupt(format!(
                "node count {node_count} disagrees with header {exp}"
            )));
        }
    }
    // Counts are untrusted: reserve no more than the payload could
    // encode (>= 1 byte per node), however large the claim.
    let cap = node_count.min(node.len() - pos);
    let mut labels = Vec::with_capacity(cap);
    let mut node_kinds = Vec::with_capacity(cap);
    for _ in 0..node_count {
        let id = read_varint_u32(node, &mut pos)?;
        if id as usize >= vocab.len() {
            return Err(StoreError::Corrupt(format!(
                "node label id {id} beyond dictionary of {}",
                vocab.len()
            )));
        }
        let label = LabelId(id);
        labels.push(label);
        node_kinds.push(vocab.kind(label));
    }
    Ok((labels, node_kinds))
}

/// Decode a `TRPL` body into owned triples, dispatching on the
/// container layout (varint delta decode mirrors the writer exactly;
/// the fixed path widens columns with zero varint work). With
/// `expected`, the embedded triple count must match it exactly.
pub(crate) fn decode_trpl(
    trpl: &[u8],
    expected: Option<u64>,
    layout: Layout,
) -> Result<Vec<Triple>, StoreError> {
    if layout == Layout::Fixed {
        return decode_trpl_fixed(trpl, expected);
    }
    let mut pos = 0usize;
    let triple_count = read_varint_usize(trpl, &mut pos)?;
    if let Some(exp) = expected {
        if triple_count as u64 != exp {
            return Err(StoreError::Corrupt(format!(
                "triple count {triple_count} disagrees with header {exp}"
            )));
        }
    }
    // >= 3 bytes per triple, so cap the reservation the same way.
    let mut triples =
        Vec::with_capacity(triple_count.min((trpl.len() - pos) / 3 + 1));
    let (mut s, mut p, mut o) = (0u32, 0u32, 0u32);
    for _ in 0..triple_count {
        let ds = read_varint_u32(trpl, &mut pos)?;
        if ds > 0 {
            p = 0;
            o = 0;
        }
        let dp = read_varint_u32(trpl, &mut pos)?;
        if dp > 0 {
            o = 0;
        }
        let dobj = read_varint_u32(trpl, &mut pos)?;
        s = s.checked_add(ds).ok_or_else(overflow)?;
        p = p.checked_add(dp).ok_or_else(overflow)?;
        o = o.checked_add(dobj).ok_or_else(overflow)?;
        triples.push(Triple::new(NodeId(s), NodeId(p), NodeId(o)));
    }
    Ok(triples)
}

/// Decode a `BNAM` body into the blank-name map; node ids must stay
/// within `node_count`.
pub(crate) fn decode_bnam(
    bnam: &[u8],
    node_count: usize,
    layout: Layout,
) -> Result<FxHashMap<NodeId, String>, StoreError> {
    let mut pos = 0usize;
    let name_count = read_varint_usize(bnam, &mut pos)?;
    let mut blank_names = FxHashMap::default();
    let mut prev = 0u32;
    for i in 0..name_count {
        let delta = read_varint_u32(bnam, &mut pos)?;
        if i > 0 && delta == 0 {
            return Err(StoreError::Corrupt(
                "duplicate blank-name node id".into(),
            ));
        }
        prev = prev.checked_add(delta).ok_or_else(overflow)?;
        if prev as usize >= node_count {
            return Err(StoreError::Corrupt(format!(
                "blank name for node {prev} beyond node count {node_count}"
            )));
        }
        let name = read_string(bnam, &mut pos, "blank-node name")?;
        blank_names.insert(NodeId(prev), name);
    }
    if layout == Layout::Fixed {
        check_pad8(bnam, pos, "BNAM section")?;
    }
    Ok(blank_names)
}

/// Decode a `DICT` body into a fresh vocabulary. With `expected`, the
/// dictionary entry count must match it exactly. In the fixed layout
/// the body keeps its varint encoding but gains the universal pad-to-8
/// tail, which is verified here.
pub(crate) fn decode_dict_checked(
    dict: &[u8],
    expected: Option<u64>,
    layout: Layout,
) -> Result<Vocab, StoreError> {
    let mut pos = 0usize;
    let vocab = read_dict(dict, &mut pos)?;
    if layout == Layout::Fixed {
        check_pad8(dict, pos, "DICT section")?;
    }
    if let Some(exp) = expected {
        if vocab.len() as u64 != exp {
            return Err(StoreError::Corrupt(format!(
                "dictionary count {} disagrees with header {exp}",
                vocab.len()
            )));
        }
    }
    Ok(vocab)
}

/// Writes graph containers to any [`Write`] sink.
#[derive(Debug)]
pub struct StoreWriter<W: Write> {
    out: W,
}

impl<W: Write> StoreWriter<W> {
    /// Wrap a sink.
    pub fn new(out: W) -> Self {
        StoreWriter { out }
    }

    /// Serialise one graph (with the vocabulary its labels live in) in
    /// the default varint layout and return the sink. Byte-identical to
    /// every earlier release.
    pub fn write_graph(
        self,
        vocab: &Vocab,
        graph: &RdfGraph,
    ) -> Result<W, StoreError> {
        self.write_graph_layout(vocab, graph, Layout::Varint)
    }

    /// Serialise one graph in an explicit section layout
    /// ([`Layout::Varint`] or [`Layout::Fixed`]).
    pub fn write_graph_layout(
        mut self,
        vocab: &Vocab,
        graph: &RdfGraph,
        layout: Layout,
    ) -> Result<W, StoreError> {
        let g = graph.graph();
        let global = encode_global_sections(vocab, graph, layout)?;
        let trpl = encode_trpl(g.triples(), layout);

        let counts = [
            global.dict_count,
            g.node_count() as u64,
            g.triple_count() as u64,
        ];
        let mut w = ContainerWriter::new();
        w.section(TAG_DICT, global.dict)
            .section(TAG_NODE, global.node)
            .section(TAG_TRPL, trpl)
            .section(TAG_BNAM, global.bnam);
        w.finish_versioned(&mut self.out, layout.version(), KIND_GRAPH, counts)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Reads graph containers from an in-memory image of the file.
///
/// ```
/// use rdf_model::{RdfGraphBuilder, Vocab};
/// use rdf_store::{graph_to_bytes, StoreReader};
///
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("ss", "address", "b1");
///     b.bul("b1", "zip", "EH8");
///     b.finish()
/// };
/// let bytes = graph_to_bytes(&vocab, &g).unwrap();
///
/// let reader = StoreReader::from_bytes(bytes);
/// let info = reader.info().unwrap();          // header + checksums
/// assert_eq!(info.header.counts[1], g.node_count() as u64);
/// let (vocab2, g2) = reader.read_graph().unwrap();
/// assert_eq!(g2.graph().triples(), g.graph().triples());
/// assert!(vocab2.find_uri("address").is_some());
/// ```
#[derive(Debug)]
pub struct StoreReader {
    bytes: Vec<u8>,
}

/// Summary of a container, as shown by `rdf info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Parsed fixed header.
    pub header: Header,
    /// Section body layout the header version selects.
    pub layout: Layout,
    /// The [`LoadMode`] a borrowed view of this container would use for
    /// its id columns: `decode` for varint stores, `borrow`/`widen` for
    /// fixed stores depending on the `TRPL` column width (meaningful
    /// for graph-bearing kinds only).
    pub mode: LoadMode,
    /// Byte width of the fixed `TRPL` columns (`None` for varint
    /// stores or non-graph kinds). Lets callers render `widen
    /// (width N)` instead of a bare `widen`.
    pub trpl_width: Option<u8>,
    /// Total file size in bytes.
    pub file_bytes: usize,
    /// `(tag, payload bytes)` per section, in file order. Present only
    /// after full validation — every listed section passed its checksum.
    pub sections: Vec<(String, usize)>,
}

impl StoreReader {
    /// Read a container file fully into memory.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Ok(StoreReader {
            bytes: std::fs::read(path)?,
        })
    }

    /// Wrap an already-loaded byte buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        StoreReader { bytes }
    }

    /// Validate the whole container (header, framing, checksums) and
    /// summarise it. Works for any content kind.
    pub fn info(&self) -> Result<StoreInfo, StoreError> {
        let c = Container::parse(&self.bytes)?;
        let layout = c.header().layout();
        let (mode, trpl_width) = match layout {
            Layout::Varint => (LoadMode::Decode, None),
            Layout::Fixed => {
                let width = c.section(TAG_TRPL).ok().and_then(|b| {
                    parse_fixed_body(b, 3, None, "fixed TRPL section")
                        .ok()
                        .map(|fb| fb.width)
                });
                let mode = match width {
                    Some(4) if cfg!(target_endian = "little") => {
                        LoadMode::Borrow
                    }
                    _ => LoadMode::Widen,
                };
                (mode, width)
            }
        };
        Ok(StoreInfo {
            header: *c.header(),
            layout,
            mode,
            trpl_width,
            file_bytes: self.bytes.len(),
            sections: c
                .sections()
                .iter()
                .map(|(tag, p)| {
                    (
                        String::from_utf8_lossy(tag).into_owned(),
                        p.len() + SECTION_OVERHEAD,
                    )
                })
                .collect(),
        })
    }

    /// Decode the graph and its dictionary.
    ///
    /// The returned [`Vocab`] contains exactly the store's dictionary
    /// (dense ids, blank label at 0); the graph's label ids index it
    /// directly. No string is hashed per node or triple — only the one
    /// pass that rebuilds the vocabulary's intern maps from the
    /// dictionary.
    pub fn read_graph(&self) -> Result<(Vocab, RdfGraph), StoreError> {
        self.read_graph_traced(Threads::Auto, &Recorder::disabled())
    }

    /// [`StoreReader::read_graph`] with instrumentation: emits one
    /// `store.open` span covering the container parse (framing plus
    /// every section CRC) and one `store.section` span per decoded
    /// section body. The decoded graph is byte-identical to the
    /// untraced load — tracing is a pure side channel.
    ///
    /// `threads` is not used: the decode is sequential. The parameter
    /// remains because the benchmark harness calls this signature.
    pub fn read_graph_traced(
        &self,
        _threads: Threads,
        rec: &Recorder,
    ) -> Result<(Vocab, RdfGraph), StoreError> {
        let mut open = rec.span("store.open");
        open.field("bytes", self.bytes.len());
        let c = Container::parse(&self.bytes)?;
        let layout = c.header().layout();
        open.field("layout", layout.to_string());
        drop(open);
        let header = *c.header();
        if header.kind != KIND_GRAPH {
            return Err(StoreError::WrongContentKind {
                found: header.kind,
                expected: KIND_GRAPH,
            });
        }

        let dict_body = c.section(TAG_DICT)?;
        let vocab = {
            let _sp = section_span(rec, "DICT", dict_body.len(), layout);
            decode_dict_checked(dict_body, Some(header.counts[0]), layout)?
        };
        let node_body = c.section(TAG_NODE)?;
        let (labels, node_kinds) = {
            let _sp = section_span(rec, "NODE", node_body.len(), layout);
            decode_node(node_body, &vocab, Some(header.counts[1]), layout)?
        };
        let node_count = labels.len();
        let trpl_body = c.section(TAG_TRPL)?;
        let triples = {
            let _sp = section_span(rec, "TRPL", trpl_body.len(), layout);
            decode_trpl(trpl_body, Some(header.counts[2]), layout)?
        };
        let triple_count = triples.len();
        let graph = TripleGraph::from_raw_parts(labels, node_kinds, triples)
            .map_err(|e| StoreError::Corrupt(e.to_string()))?;
        if graph.triple_count() != triple_count {
            return Err(StoreError::Corrupt(
                "duplicate triples in store".into(),
            ));
        }
        let bnam_body = c.section(TAG_BNAM)?;
        let blank_names = {
            let _sp = section_span(rec, "BNAM", bnam_body.len(), layout);
            decode_bnam(bnam_body, node_count, layout)?
        };
        Ok((vocab, RdfGraph::from_raw_parts(graph, blank_names)))
    }
}

/// A `store.section` span tagged with the section name, body size and
/// container layout. Shared by the heap and borrowed traced loads.
pub(crate) fn section_span<'a>(
    rec: &'a Recorder,
    section: &'static str,
    bytes: usize,
    layout: Layout,
) -> SpanGuard<'a> {
    let mut sp = rec.span("store.section");
    sp.field("section", section);
    sp.field("bytes", bytes);
    sp.field("layout", layout.to_string());
    sp
}

pub(crate) fn overflow() -> StoreError {
    StoreError::Corrupt("id delta overflows u32".into())
}

/// Save a graph to a `.rdfb` file (varint layout).
pub fn save_graph(
    path: impl AsRef<Path>,
    vocab: &Vocab,
    graph: &RdfGraph,
) -> Result<(), StoreError> {
    save_graph_layout(path, vocab, graph, Layout::Varint)
}

/// Save a graph to a `.rdfb` file in an explicit section layout.
pub fn save_graph_layout(
    path: impl AsRef<Path>,
    vocab: &Vocab,
    graph: &RdfGraph,
    layout: Layout,
) -> Result<(), StoreError> {
    let file = std::fs::File::create(path)?;
    StoreWriter::new(std::io::BufWriter::new(file))
        .write_graph_layout(vocab, graph, layout)?;
    Ok(())
}

/// Load a graph from a `.rdfb` file.
pub fn load_graph(
    path: impl AsRef<Path>,
) -> Result<(Vocab, RdfGraph), StoreError> {
    StoreReader::open(path)?.read_graph()
}

/// Serialise a graph container into a byte vector (varint layout).
pub fn graph_to_bytes(
    vocab: &Vocab,
    graph: &RdfGraph,
) -> Result<Vec<u8>, StoreError> {
    StoreWriter::new(Vec::new()).write_graph(vocab, graph)
}

/// Serialise a graph container into a byte vector in an explicit
/// section layout.
pub fn graph_to_bytes_layout(
    vocab: &Vocab,
    graph: &RdfGraph,
    layout: Layout,
) -> Result<Vec<u8>, StoreError> {
    StoreWriter::new(Vec::new()).write_graph_layout(vocab, graph, layout)
}
