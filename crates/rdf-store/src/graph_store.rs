//! Saving a dictionary-encoded [`TripleGraph`] (`.rdfb`, content kind
//! [`KIND_GRAPH`]), and the section decoders the one reader
//! ([`crate::BorrowedStoreReader`]) shares.
//!
//! A graph container holds four sections — `DICT` (label dictionary),
//! `NODE` (per-node dictionary ids as one fixed-width column), `TRPL`
//! (the sorted triples as three fixed-width columns) and `BNAM`
//! (document-local blank-node names); their exact byte layouts are
//! specified in `docs/FORMAT.md` §3. Every graph store is container
//! version 3; graph stores of versions 1 (the varint layout) and 2 (a
//! `DICT` in first-use order) are retired and refused with
//! [`StoreError::RetiredLayout`].
//!
//! The `DICT` holds the labels the graph uses, strictly ascending by
//! `(`[`rdf_model::label_hash`]`, kind, text)`, and a `NODE` label id is
//! its label's rank in that order. The writer reads the order off the
//! vocabulary's table ([`Vocab::hash_order`]) rather than hashing every
//! label again. So a store depends only on the graph's terms, never on
//! the order they were interned in: `save(load(save(g)))` is
//! byte-identical to `save(g)`, and `load(save(parse(text)))` keeps
//! `parse(text)`'s node ids, CSR layout, kinds and blank names, with
//! every node's label equal by `(kind, text)`.
//!
//! [`TripleGraph`]: rdf_model::TripleGraph

use crate::borrowed::BorrowedStoreReader;
use crate::container::{ContainerWriter, KIND_GRAPH, FORMAT_VERSION_FIXED};
use crate::dict::{read_str, write_dict, DictEntries};
use crate::error::StoreError;
use crate::fixed::{
    check_pad8, encode_node_fixed_into, encode_trpl_fixed_into, pad8,
};
use crate::varint::{read_varint_u32, read_varint_usize, write_varint};
use rdf_model::{FxHashMap, LabelId, NodeId, RdfGraph, Vocab};
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
    /// blank label, and the labels the graph uses follow in hash order
    /// (see the module docs).
    pub fn write_graph(
        mut self,
        vocab: &Vocab,
        graph: &RdfGraph,
    ) -> Result<W, StoreError> {
        let g = graph.graph();

        let mut dense = vec![u32::MAX; vocab.len()];
        for l in g.labels_raw() {
            dense[l.index()] = 0;
        }
        let mut used = vocab.hash_order();
        used.retain(|id| dense[id.index()] == 0);
        for (rank, id) in (1..).zip(&used) {
            dense[id.index()] = rank;
        }
        dense[0] = 0;

        let mut dict = Vec::new();
        write_dict(&mut dict, vocab, used.iter().copied())?;
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
        encode_trpl_fixed_into(&mut trpl, &g.out_columns());

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
            used.len() as u64 + 1,
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

/// Walk a `BNAM` body, handing each blank node's id and name to
/// `visit` in id order, without allocating. Every check of the body is
/// made here: the varint framing, node ids strictly ascending (so none
/// repeats) and below `node_count`, UTF-8 names, and the pad-to-8 tail.
pub(crate) fn walk_bnam<'a>(
    bnam: &'a [u8],
    node_count: usize,
    mut visit: impl FnMut(NodeId, &'a str),
) -> Result<(), StoreError> {
    let mut pos = 0usize;
    let name_count = read_varint_usize(bnam, &mut pos)?;
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
        visit(NodeId(prev), read_str(bnam, &mut pos, "blank-node name")?);
    }
    check_pad8(bnam, pos, "BNAM section")
}

/// Decode a `BNAM` body into the blank-name map (see [`walk_bnam`]).
pub(crate) fn decode_bnam(
    bnam: &[u8],
    node_count: usize,
) -> Result<FxHashMap<NodeId, String>, StoreError> {
    let mut blank_names = FxHashMap::default();
    walk_bnam(bnam, node_count, |n, name| {
        blank_names.insert(n, name.to_owned());
    })?;
    Ok(blank_names)
}

/// Start the walk of a `DICT` body whose entry count must match the
/// header's `expected` exactly. The count is checked before any entry
/// is read, so a mismatch interns nothing.
pub(crate) fn dict_section(
    dict: &[u8],
    expected: u64,
) -> Result<DictEntries<'_>, StoreError> {
    let entries = DictEntries::new(dict, 0)?;
    if entries.label_count() as u64 != expected {
        return Err(StoreError::Corrupt(format!(
            "dictionary count {} disagrees with header {expected}",
            entries.label_count()
        )));
    }
    Ok(entries)
}

/// The entry count of a `DICT` body, without reading an entry: it must
/// match the header's `expected`, and the body must have room for that
/// many entries, so a forged count cannot pass for a dictionary the
/// body does not hold. Entry tags, UTF-8 and the padding are not
/// checked.
pub(crate) fn dict_label_count(
    dict: &[u8],
    expected: u64,
) -> Result<usize, StoreError> {
    let entries = dict_section(dict, expected)?;
    let count = entries.label_count();
    if entries.capacity_hint() < count {
        return Err(StoreError::Corrupt(format!(
            "dictionary count {count} exceeds what its {} bytes hold",
            dict.len()
        )));
    }
    Ok(count)
}

/// The entry of a per-dictionary-id table for one `NODE` label id; an
/// id beyond the dictionary is `Corrupt`.
#[inline]
pub(crate) fn dict_entry<T: Copy>(
    table: &[T],
    label: LabelId,
) -> Result<T, StoreError> {
    table
        .get(label.index())
        .copied()
        .ok_or_else(|| label_beyond_dict(label, table.len()))
}

/// The error for a `NODE` label id at or above the dictionary's count.
pub(crate) fn label_beyond_dict(label: LabelId, count: usize) -> StoreError {
    StoreError::Corrupt(format!(
        "node label id {} beyond dictionary of {count}",
        label.0
    ))
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
