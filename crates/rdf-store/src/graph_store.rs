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
//! The writer takes a graph either laid out ([`StoreWriter::write_graph`],
//! which reads the `TRPL` columns off its CSR) or as the parser's
//! sorted parts ([`StoreWriter::write_sorted`], the import path, which
//! never lays out a CSR); both give the same bytes for the same graph.
//!
//! [`TripleGraph`]: rdf_model::TripleGraph

use crate::borrowed::BorrowedStoreReader;
use crate::container::{ContainerWriter, KIND_GRAPH, FORMAT_VERSION_FIXED};
use crate::dict::{read_str, write_dict, DictEntries};
use crate::error::StoreError;
use crate::fixed::{check_pad8, put_node_fixed, put_trpl_fixed};
use crate::varint::{
    read_varint_u32, read_varint_usize, write_varint, VARINT_MAX,
};
use rdf_model::{FxHashMap, LabelId, NodeId, RdfGraph, SortedGraph, Vocab};
use rdf_obs::{Recorder, SpanGuard};
use std::io::Write;
use std::path::Path;

pub(crate) const TAG_DICT: [u8; 4] = *b"DICT";
pub(crate) const TAG_NODE: [u8; 4] = *b"NODE";
pub(crate) const TAG_TRPL: [u8; 4] = *b"TRPL";
pub(crate) const TAG_BNAM: [u8; 4] = *b"BNAM";

/// Writes graph containers to any [`Write`] sink, one window of one
/// section at a time (see [`ContainerWriter`]): besides the graph it is
/// given, it holds the dictionary order, each vocabulary id's rank in
/// it, the blank names sorted by node, and one window.
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
    /// and return the sink. The `TRPL` columns are read off the graph's
    /// CSR.
    ///
    /// Label ids are remapped onto a dense dictionary: 0 stays the
    /// blank label, and the labels the graph uses follow in hash order
    /// (see the module docs).
    pub fn write_graph(
        self,
        vocab: &Vocab,
        graph: &RdfGraph,
    ) -> Result<W, StoreError> {
        let g = graph.graph();
        let cols = g.out_columns();
        let offsets = cols.offsets();
        let last_subject = offsets.windows(2).rposition(|w| w[0] < w[1]);
        let max = ids(cols.preds())
            .chain(ids(cols.objs()))
            .chain(last_subject.map(|s| s as u32))
            .max();
        let subjects = offsets.windows(2).enumerate().flat_map(|(s, w)| {
            std::iter::repeat_n(s as u32, (w[1] - w[0]) as usize)
        });
        let edges = Edges {
            count: cols.len(),
            max: max.unwrap_or(0),
            s: subjects,
            p: ids(cols.preds()),
            o: ids(cols.objs()),
        };
        self.write(vocab, g.labels_raw(), edges, graph.blank_names())
    }

    /// Serialise one graph given as its sorted parts
    /// ([`rdf_model::RdfGraphBuilder::finish_sorted`]) and return the
    /// sink: the same bytes [`StoreWriter::write_graph`] writes for the
    /// graph those parts lay out, without laying out its CSR.
    pub fn write_sorted(
        self,
        vocab: &Vocab,
        graph: &SortedGraph,
    ) -> Result<W, StoreError> {
        let t = &graph.triples;
        let max = t.iter().map(|t| t.s.0.max(t.p.0).max(t.o.0)).max();
        let edges = Edges {
            count: t.len(),
            max: max.unwrap_or(0),
            s: t.iter().map(|t| t.s.0),
            p: t.iter().map(|t| t.p.0),
            o: t.iter().map(|t| t.o.0),
        };
        self.write(vocab, &graph.labels, edges, &graph.blank_names)
    }

    /// Write the container of a graph with per-node `labels`, the
    /// triple columns `edges` and `blank_names`.
    fn write<S, P, O>(
        mut self,
        vocab: &Vocab,
        labels: &[LabelId],
        edges: Edges<S, P, O>,
        blank_names: &FxHashMap<NodeId, String>,
    ) -> Result<W, StoreError>
    where
        S: Iterator<Item = u32> + Clone,
        P: Iterator<Item = u32> + Clone,
        O: Iterator<Item = u32> + Clone,
    {
        let mut dense = vec![u32::MAX; vocab.len()];
        for l in labels {
            dense[l.index()] = 0;
        }
        let mut used = vocab.hash_order();
        used.retain(|id| dense[id.index()] == 0);
        for (rank, id) in (1..).zip(&used) {
            dense[id.index()] = rank;
        }
        dense[0] = 0;
        // Every label in `used` is some node's, so the largest `NODE`
        // id is the last rank.
        let max_rank = used.len() as u32;

        let mut names: Vec<(NodeId, &str)> = blank_names
            .iter()
            .map(|(&n, s)| (n, s.as_str()))
            .collect();
        names.sort_unstable_by_key(|&(n, _)| n);

        let counts = [
            used.len() as u64 + 1,
            labels.len() as u64,
            edges.count as u64,
        ];
        let mut w = ContainerWriter::new();
        w.windowed(TAG_DICT, |w| {
            write_dict(w, vocab, used.iter().copied())?;
            w.pad8()
        })
        .windowed(TAG_NODE, |w| {
            let ranks = labels.iter().map(|l| dense[l.index()]);
            put_node_fixed(w, labels.len(), max_rank, ranks)
        })
        .windowed(TAG_TRPL, |w| {
            let e = edges.clone();
            put_trpl_fixed(w, e.count, e.max, e.s, e.p, e.o)
        })
        .windowed(TAG_BNAM, |w| {
            write_varint(w.room(VARINT_MAX)?, names.len() as u64);
            let mut prev = 0u32;
            for &(n, name) in &names {
                let head = w.room(2 * VARINT_MAX)?;
                write_varint(head, u64::from(n.0 - prev));
                prev = n.0;
                write_varint(head, name.len() as u64);
                w.put(name.as_bytes())?;
            }
            w.pad8()
        });
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

/// The `TRPL` columns of a graph: `count` triples in `(s, p, o)` order,
/// no node id above `max`.
#[derive(Clone)]
struct Edges<S, P, O> {
    count: usize,
    max: u32,
    s: S,
    p: P,
    o: O,
}

/// A column of node ids as `u32`s.
fn ids(column: &[NodeId]) -> impl Iterator<Item = u32> + Clone + '_ {
    column.iter().map(|n| n.0)
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
