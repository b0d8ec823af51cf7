//! Saving a dictionary-encoded [`TripleGraph`] (`.rdfb`, content kind
//! [`KIND_GRAPH`]), and the section decoders the one reader
//! ([`crate::BorrowedStoreReader`]) shares.
//!
//! A graph container holds four sections — `DICT` (label dictionary),
//! `NODE` (per-node dictionary ids as one fixed-width column), `TRPL`
//! (the sorted triples as three fixed-width columns) and `BNAM`
//! (document-local blank-node names); their exact byte layouts are
//! specified in `docs/FORMAT.md` §3. Every graph store is container
//! version 2; a version-1 graph store is the retired varint layout and
//! is refused with [`StoreError::RetiredLayout`].
//!
//! Labels are remapped to *dense* ids in ascending first-use order before
//! writing, so a store written from a freshly parsed graph has exactly
//! the parse's interning order, and `load(save(parse(text)))` rebuilds a
//! graph byte-identical to `parse(text)` — same node ids, same label ids,
//! same CSR layout — without hashing a single string per node or triple.
//!
//! [`TripleGraph`]: rdf_model::TripleGraph

use crate::borrowed::BorrowedStoreReader;
use crate::container::{ContainerWriter, KIND_GRAPH, FORMAT_VERSION_FIXED};
use crate::dict::{read_dict, read_string, write_dict};
use crate::error::StoreError;
use crate::fixed::{
    check_pad8, encode_node_fixed_into, encode_trpl_fixed_into, pad8,
};
use crate::varint::{read_varint_u32, read_varint_usize, write_varint};
use rdf_model::{FxHashMap, LabelId, LabelKind, NodeId, RdfGraph, Vocab};
use rdf_obs::{Recorder, SpanGuard};
use std::io::Write;
use std::path::Path;

pub(crate) const TAG_DICT: [u8; 4] = *b"DICT";
pub(crate) const TAG_NODE: [u8; 4] = *b"NODE";
pub(crate) const TAG_TRPL: [u8; 4] = *b"TRPL";
pub(crate) const TAG_BNAM: [u8; 4] = *b"BNAM";

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

    /// Serialise one graph (with the vocabulary its labels live in)
    /// and return the sink.
    ///
    /// Label ids are remapped onto a dense dictionary: 0 stays the
    /// blank label, the rest keep their relative first-interned order,
    /// so a graph parsed into a fresh vocab maps identically.
    pub fn write_graph(
        mut self,
        vocab: &Vocab,
        graph: &RdfGraph,
    ) -> Result<W, StoreError> {
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
        pad8(&mut dict);

        let remapped: Vec<LabelId> = g
            .labels_raw()
            .iter()
            .map(|l| LabelId(dense[l.index()]))
            .collect();
        let mut node = Vec::new();
        encode_node_fixed_into(&mut node, &remapped);
        drop(remapped);

        let mut trpl = Vec::new();
        encode_trpl_fixed_into(&mut trpl, g.triples());

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
        pad8(&mut bnam);

        let counts = [
            used.len() as u64,
            g.node_count() as u64,
            g.triple_count() as u64,
        ];
        let mut w = ContainerWriter::new();
        w.section(TAG_DICT, dict)
            .section(TAG_NODE, node)
            .section(TAG_TRPL, trpl)
            .section(TAG_BNAM, bnam);
        w.finish_versioned(
            &mut self.out,
            FORMAT_VERSION_FIXED,
            KIND_GRAPH,
            counts,
        )?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Bounds-check store label ids against the decoded dictionary and
/// derive the per-node kind array.
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

/// Decode a `BNAM` body into the blank-name map; node ids must stay
/// within `node_count`, and the body ends in the pad-to-8 tail.
pub(crate) fn decode_bnam(
    bnam: &[u8],
    node_count: usize,
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
        prev = prev.checked_add(delta).ok_or_else(|| {
            StoreError::Corrupt("id delta overflows u32".into())
        })?;
        if prev as usize >= node_count {
            return Err(StoreError::Corrupt(format!(
                "blank name for node {prev} beyond node count {node_count}"
            )));
        }
        let name = read_string(bnam, &mut pos, "blank-node name")?;
        blank_names.insert(NodeId(prev), name);
    }
    check_pad8(bnam, pos, "BNAM section")?;
    Ok(blank_names)
}

/// Decode a `DICT` body into a fresh vocabulary. The entry count must
/// match the header's `expected` exactly. The body keeps its varint
/// encoding and ends in the pad-to-8 tail, which is verified here.
pub(crate) fn decode_dict_checked(
    dict: &[u8],
    expected: u64,
) -> Result<Vocab, StoreError> {
    let mut pos = 0usize;
    let vocab = read_dict(dict, &mut pos)?;
    check_pad8(dict, pos, "DICT section")?;
    if vocab.len() as u64 != expected {
        return Err(StoreError::Corrupt(format!(
            "dictionary count {} disagrees with header {expected}",
            vocab.len()
        )));
    }
    Ok(vocab)
}

/// A `store.section` span tagged with the section name, body size and
/// layout (always `fixed` for a graph store).
pub(crate) fn section_span<'a>(
    rec: &'a Recorder,
    section: &'static str,
    bytes: usize,
) -> SpanGuard<'a> {
    let mut sp = rec.span("store.section");
    sp.field("section", section);
    sp.field("bytes", bytes);
    sp.field("layout", "fixed");
    sp
}

/// Save a graph to a `.rdfb` file.
pub fn save_graph(
    path: impl AsRef<Path>,
    vocab: &Vocab,
    graph: &RdfGraph,
) -> Result<(), StoreError> {
    let file = std::fs::File::create(path)?;
    StoreWriter::new(std::io::BufWriter::new(file))
        .write_graph(vocab, graph)?;
    Ok(())
}

/// Load a graph from a `.rdfb` file.
pub fn load_graph(
    path: impl AsRef<Path>,
) -> Result<(Vocab, RdfGraph), StoreError> {
    BorrowedStoreReader::open(path)?.read_graph()
}

/// Serialise a graph container into a byte vector.
pub fn graph_to_bytes(
    vocab: &Vocab,
    graph: &RdfGraph,
) -> Result<Vec<u8>, StoreError> {
    StoreWriter::new(Vec::new()).write_graph(vocab, graph)
}
