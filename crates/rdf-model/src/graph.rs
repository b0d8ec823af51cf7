//! The triple-graph data model (Definition 1).
//!
//! A triple graph is `G = (N_G, E_G, ℓ_G)`: a finite node set, a set of
//! node *triples* `E_G ⊆ N_G × N_G × N_G` (subject, predicate, object —
//! the predicate is itself a node), and a node labelling `ℓ_G : N_G → I`.
//!
//! Nodes are dense `u32` identifiers local to one graph. The outbound
//! neighbourhood `out(n) = {(p, o) | (n, p, o) ∈ E_G}` of §2.3 is stored in
//! CSR form so refinement rounds iterate it without allocation.

use crate::label::{LabelId, LabelKind, Vocab};
use std::fmt;

/// Dense node identifier, local to one [`TripleGraph`].
///
/// `repr(transparent)` over `u32` is a guarantee, not an accident: the
/// zero-copy store readers ([`crate::view`]) reinterpret aligned
/// little-endian byte columns as `&[NodeId]` without a decode pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A subject–predicate–object triple of node identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject node.
    pub s: NodeId,
    /// Predicate node (a first-class node, per §2.3).
    pub p: NodeId,
    /// Object node.
    pub o: NodeId,
}

impl Triple {
    /// Construct a triple.
    #[inline]
    pub fn new(s: NodeId, p: NodeId, o: NodeId) -> Self {
        Triple { s, p, o }
    }
}

/// An immutable triple graph with CSR outbound adjacency.
///
/// Build one through [`GraphBuilder`]; the freeze step sorts and
/// deduplicates triples (edge *sets*, not multisets) and lays out
/// `out(n)` contiguously.
#[derive(Debug, Clone)]
pub struct TripleGraph {
    labels: Vec<LabelId>,
    kinds: Vec<LabelKind>,
    triples: Vec<Triple>,
    /// CSR offsets: out-edges of node `n` are
    /// `out_pairs[out_index[n] .. out_index[n + 1]]`.
    out_index: Vec<u32>,
    /// Flattened `(p, o)` pairs, grouped by subject, sorted within group.
    out_pairs: Vec<(NodeId, NodeId)>,
}

impl TripleGraph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of (distinct) triples.
    #[inline]
    pub fn triple_count(&self) -> usize {
        self.triples.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// All triples, sorted by (s, p, o).
    #[inline]
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The label of a node.
    #[inline]
    pub fn label(&self, n: NodeId) -> LabelId {
        self.labels[n.index()]
    }

    /// The label kind of a node (cached; avoids a vocab lookup).
    #[inline]
    pub fn kind(&self, n: NodeId) -> LabelKind {
        self.kinds[n.index()]
    }

    /// Whether the node is a literal.
    #[inline]
    pub fn is_literal(&self, n: NodeId) -> bool {
        self.kinds[n.index()] == LabelKind::Literal
    }

    /// Whether the node is blank.
    #[inline]
    pub fn is_blank(&self, n: NodeId) -> bool {
        self.kinds[n.index()] == LabelKind::Blank
    }

    /// Whether the node is a URI.
    #[inline]
    pub fn is_uri(&self, n: NodeId) -> bool {
        self.kinds[n.index()] == LabelKind::Uri
    }

    /// The outbound neighbourhood `out(n)` as `(predicate, object)` pairs,
    /// sorted lexicographically.
    #[inline]
    pub fn out(&self, n: NodeId) -> &[(NodeId, NodeId)] {
        let lo = self.out_index[n.index()] as usize;
        let hi = self.out_index[n.index() + 1] as usize;
        &self.out_pairs[lo..hi]
    }

    /// Out-degree `|out(n)|`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        (self.out_index[n.index() + 1] - self.out_index[n.index()]) as usize
    }

    /// Materialise the grouped-CSR (struct-of-arrays) form of the
    /// outbound adjacency: the predicate and object columns of every
    /// `out(n)`, copied into two parallel arrays (`O(E)` work and
    /// allocation) sharing this graph's per-node offsets. Hot loops
    /// that touch every out-edge of every node (the refinement
    /// signature phase) stream two contiguous `u32` columns instead of
    /// chasing per-node `out(n)` pair slices — build the columns once
    /// per graph and reuse them across rounds and fixpoint runs.
    pub fn out_columns(&self) -> OutColumns<'_> {
        OutColumns {
            offsets: std::borrow::Cow::Borrowed(&self.out_index),
            preds: self.out_pairs.iter().map(|&(p, _)| p).collect(),
            objs: self.out_pairs.iter().map(|&(_, o)| o).collect(),
        }
    }

    /// Ids of all nodes with the given kind.
    pub fn nodes_of_kind(&self, kind: LabelKind) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.kind(n) == kind).collect()
    }

    /// `URIs(G)` — nodes labelled with a URI.
    pub fn uris(&self) -> Vec<NodeId> {
        self.nodes_of_kind(LabelKind::Uri)
    }

    /// `Literals(G)` — nodes labelled with a literal.
    pub fn literals(&self) -> Vec<NodeId> {
        self.nodes_of_kind(LabelKind::Literal)
    }

    /// `Blanks(G)` — blank nodes.
    pub fn blanks(&self) -> Vec<NodeId> {
        self.nodes_of_kind(LabelKind::Blank)
    }

    /// Whether the triple `(s, p, o)` is present.
    pub fn has_triple(&self, s: NodeId, p: NodeId, o: NodeId) -> bool {
        self.out(s).binary_search(&(p, o)).is_ok()
    }

    /// The per-node label array (index = node id).
    ///
    /// Raw view for serialisers; pairs with [`TripleGraph::from_raw_parts`].
    #[inline]
    pub fn labels_raw(&self) -> &[LabelId] {
        &self.labels
    }

    /// The per-node label-kind array (index = node id).
    #[inline]
    pub fn kinds_raw(&self) -> &[LabelKind] {
        &self.kinds
    }

    /// Rebuild a graph from its raw parts without consulting a [`Vocab`]:
    /// per-node labels, per-node kinds (must agree with the vocabulary the
    /// labels were interned in), and the triple list.
    ///
    /// This is the deserialisation path of the on-disk store: label ids are
    /// taken at face value, so no string hashing or interning happens per
    /// node or per triple. Triples may arrive in any order; they are sorted
    /// and deduplicated exactly as [`GraphBuilder::freeze`] would, so the
    /// result is byte-identical to a fresh build from the same parts.
    ///
    /// Returns an error (not a panic) if the arrays are inconsistent:
    /// `labels` and `kinds` lengths differ, or a triple references a node
    /// id out of range.
    pub fn from_raw_parts(
        labels: Vec<LabelId>,
        kinds: Vec<LabelKind>,
        mut triples: Vec<Triple>,
    ) -> Result<TripleGraph, RawPartsError> {
        if labels.len() != kinds.len() {
            return Err(RawPartsError::LengthMismatch {
                labels: labels.len(),
                kinds: kinds.len(),
            });
        }
        let n = labels.len() as u32;
        for t in &triples {
            for node in [t.s, t.p, t.o] {
                if node.0 >= n {
                    return Err(RawPartsError::NodeOutOfRange {
                        node: node.0,
                        nodes: n,
                    });
                }
            }
        }
        // Already-sorted input (the common case when loading a store that
        // was written from a frozen graph) skips the sort.
        if !triples.windows(2).all(|w| w[0] < w[1]) {
            triples.sort_unstable();
            triples.dedup();
        }
        let n = labels.len();
        let mut out_index = vec![0u32; n + 1];
        for t in &triples {
            out_index[t.s.index() + 1] += 1;
        }
        for i in 0..n {
            out_index[i + 1] += out_index[i];
        }
        let out_pairs: Vec<(NodeId, NodeId)> =
            triples.iter().map(|t| (t.p, t.o)).collect();
        Ok(TripleGraph {
            labels,
            kinds,
            triples,
            out_index,
            out_pairs,
        })
    }
}

/// Grouped-CSR form of a graph's outbound adjacency (see
/// [`TripleGraph::out_columns`], which copies the columns out of the
/// graph's pair storage): `(pred, obj)` column slices with per-node
/// offsets. Edge `j` of node `n` is `(preds()[j], objs()[j])` for `j`
/// in `range(n)`, in the same sorted order as [`TripleGraph::out`].
///
/// Every column is a [`Cow`](std::borrow::Cow): a view built from a
/// resident graph owns
/// its copies, while a view served by the zero-copy store path
/// ([`crate::view::TripleGraphView::out_columns`]) borrows columns
/// straight from the store buffer. Consumers (the refinement engine's
/// signature phase) hoist the slices once per round, so the `Cow`
/// indirection never appears in a hot loop.
#[derive(Debug, Clone)]
pub struct OutColumns<'g> {
    offsets: std::borrow::Cow<'g, [u32]>,
    preds: std::borrow::Cow<'g, [NodeId]>,
    objs: std::borrow::Cow<'g, [NodeId]>,
}

impl<'g> OutColumns<'g> {
    /// Assemble a view from raw columns — the zero-copy entry point.
    ///
    /// Validates the CSR shape once (`O(nodes + edges)` comparisons,
    /// no allocation): offsets must be non-empty and non-decreasing,
    /// and the final offset must equal both column lengths. Returns
    /// `None` on any violation; a malformed view would otherwise
    /// surface as an index panic inside a refinement worker.
    pub fn from_parts(
        offsets: std::borrow::Cow<'g, [u32]>,
        preds: std::borrow::Cow<'g, [NodeId]>,
        objs: std::borrow::Cow<'g, [NodeId]>,
    ) -> Option<OutColumns<'g>> {
        let last = *offsets.last()?;
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if preds.len() != last as usize || objs.len() != last as usize {
            return None;
        }
        Some(OutColumns {
            offsets,
            preds,
            objs,
        })
    }

    /// The edge-index range of node `n`'s outbound edges.
    #[inline]
    pub fn range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.offsets[n.index()] as usize
            ..self.offsets[n.index() + 1] as usize
    }

    /// The predicate column, indexed by edge.
    #[inline]
    pub fn preds(&self) -> &[NodeId] {
        &self.preds
    }

    /// The object column, indexed by edge.
    #[inline]
    pub fn objs(&self) -> &[NodeId] {
        &self.objs
    }

    /// The per-node offsets (length `node_count + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Total number of edges in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the view holds no edges.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Whether every column (offsets, predicates, objects) borrows from
    /// an external buffer rather than owning a copy — true only on the
    /// zero-copy store path over width-4 fixed columns.
    pub fn is_fully_borrowed(&self) -> bool {
        use std::borrow::Cow;
        matches!(self.offsets, Cow::Borrowed(_))
            && matches!(self.preds, Cow::Borrowed(_))
            && matches!(self.objs, Cow::Borrowed(_))
    }
}

/// Inconsistency detected by [`TripleGraph::from_raw_parts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawPartsError {
    /// The label and kind arrays have different lengths.
    LengthMismatch {
        /// Length of the label array.
        labels: usize,
        /// Length of the kind array.
        kinds: usize,
    },
    /// A triple references a node id beyond the node count.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The number of nodes.
        nodes: u32,
    },
}

impl fmt::Display for RawPartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RawPartsError::LengthMismatch { labels, kinds } => write!(
                f,
                "label array has {labels} entries but kind array has {kinds}"
            ),
            RawPartsError::NodeOutOfRange { node, nodes } => {
                write!(f, "triple references node {node} of {nodes}")
            }
        }
    }
}

impl std::error::Error for RawPartsError {}

/// Mutable builder for [`TripleGraph`].
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    labels: Vec<LabelId>,
    kinds: Vec<LabelKind>,
    triples: Vec<Triple>,
}

impl GraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with node/triple capacity hints.
    pub fn with_capacity(nodes: usize, triples: usize) -> Self {
        GraphBuilder {
            labels: Vec::with_capacity(nodes),
            kinds: Vec::with_capacity(nodes),
            triples: Vec::with_capacity(triples),
        }
    }

    /// Current number of nodes added.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Label of an already-added node.
    #[inline]
    pub fn label(&self, n: NodeId) -> LabelId {
        self.labels[n.index()]
    }

    /// Label kind of an already-added node.
    #[inline]
    pub fn kind(&self, n: NodeId) -> LabelKind {
        self.kinds[n.index()]
    }

    /// Add a node with the given label; returns its id.
    pub fn add_node(&mut self, label: LabelId, vocab: &Vocab) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label);
        self.kinds.push(vocab.kind(label));
        id
    }

    /// Add a triple between existing node ids.
    pub fn add_triple(&mut self, s: NodeId, p: NodeId, o: NodeId) {
        debug_assert!(s.index() < self.labels.len());
        debug_assert!(p.index() < self.labels.len());
        debug_assert!(o.index() < self.labels.len());
        self.triples.push(Triple::new(s, p, o));
    }

    /// Freeze into an immutable graph: sorts triples, removes duplicates,
    /// and builds the CSR adjacency.
    pub fn freeze(mut self) -> TripleGraph {
        self.triples.sort_unstable();
        self.triples.dedup();
        let n = self.labels.len();
        let mut out_index = vec![0u32; n + 1];
        for t in &self.triples {
            out_index[t.s.index() + 1] += 1;
        }
        for i in 0..n {
            out_index[i + 1] += out_index[i];
        }
        // Triples are sorted by (s, p, o), so (p, o) pairs for each subject
        // are already contiguous and sorted.
        let out_pairs: Vec<(NodeId, NodeId)> =
            self.triples.iter().map(|t| (t.p, t.o)).collect();
        TripleGraph {
            labels: self.labels,
            kinds: self.kinds,
            triples: self.triples,
            out_index,
            out_pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Vocab, TripleGraph) {
        // w --p--> b1, b1 --q--> "a"  (p, q are predicate URI nodes)
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let w = b.add_node(v.uri("w"), &v);
        let p = b.add_node(v.uri("p"), &v);
        let q = b.add_node(v.uri("q"), &v);
        let b1 = b.add_node(LabelId::BLANK, &v);
        let a = b.add_node(v.literal("a"), &v);
        b.add_triple(w, p, b1);
        b.add_triple(b1, q, a);
        (v, b.freeze())
    }

    #[test]
    fn counts() {
        let (_, g) = tiny();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.triple_count(), 2);
    }

    #[test]
    fn out_neighbourhoods() {
        let (_, g) = tiny();
        let w = NodeId(0);
        let p = NodeId(1);
        let q = NodeId(2);
        let b1 = NodeId(3);
        let a = NodeId(4);
        assert_eq!(g.out(w), &[(p, b1)]);
        assert_eq!(g.out(b1), &[(q, a)]);
        assert_eq!(g.out(a), &[]);
        assert_eq!(g.out_degree(w), 1);
        assert_eq!(g.out_degree(q), 0);
    }

    #[test]
    fn kinds_partition_nodes() {
        let (_, g) = tiny();
        assert_eq!(g.uris().len(), 3);
        assert_eq!(g.blanks(), vec![NodeId(3)]);
        assert_eq!(g.literals(), vec![NodeId(4)]);
        assert!(g.is_blank(NodeId(3)));
        assert!(g.is_literal(NodeId(4)));
        assert!(g.is_uri(NodeId(0)));
    }

    #[test]
    fn duplicate_triples_removed() {
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let x = b.add_node(v.uri("x"), &v);
        let p = b.add_node(v.uri("p"), &v);
        b.add_triple(x, p, x);
        b.add_triple(x, p, x);
        let g = b.freeze();
        assert_eq!(g.triple_count(), 1);
        assert!(g.has_triple(x, p, x));
        assert!(!g.has_triple(p, x, p));
    }

    #[test]
    fn out_pairs_sorted() {
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let x = b.add_node(v.uri("x"), &v);
        let p = b.add_node(v.uri("p"), &v);
        let q = b.add_node(v.uri("q"), &v);
        let y = b.add_node(v.uri("y"), &v);
        // Insert in scrambled order.
        b.add_triple(x, q, y);
        b.add_triple(x, p, y);
        b.add_triple(x, p, q);
        let g = b.freeze();
        assert_eq!(g.out(x), &[(p, q), (p, y), (q, y)]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().freeze();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.triple_count(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn out_columns_agree_with_out_pairs() {
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let x = b.add_node(v.uri("x"), &v);
        let p = b.add_node(v.uri("p"), &v);
        let q = b.add_node(v.uri("q"), &v);
        let y = b.add_node(v.uri("y"), &v);
        b.add_triple(x, q, y);
        b.add_triple(x, p, y);
        b.add_triple(y, p, x);
        let g = b.freeze();
        let cols = g.out_columns();
        assert_eq!(cols.len(), g.triple_count());
        assert_eq!(cols.offsets().len(), g.node_count() + 1);
        for n in g.nodes() {
            let pairs: Vec<(NodeId, NodeId)> = cols
                .range(n)
                .map(|j| (cols.preds()[j], cols.objs()[j]))
                .collect();
            assert_eq!(pairs.as_slice(), g.out(n));
        }
        let empty = GraphBuilder::new().freeze();
        assert!(empty.out_columns().is_empty());
    }

    #[test]
    fn raw_parts_round_trip() {
        let (_, g) = tiny();
        let g2 = TripleGraph::from_raw_parts(
            g.labels_raw().to_vec(),
            g.kinds_raw().to_vec(),
            g.triples().to_vec(),
        )
        .unwrap();
        assert_eq!(g.labels_raw(), g2.labels_raw());
        assert_eq!(g.kinds_raw(), g2.kinds_raw());
        assert_eq!(g.triples(), g2.triples());
        for n in g.nodes() {
            assert_eq!(g.out(n), g2.out(n));
        }
    }

    #[test]
    fn raw_parts_sorts_and_dedups_unsorted_input() {
        let (_, g) = tiny();
        let mut scrambled = g.triples().to_vec();
        scrambled.reverse();
        scrambled.push(scrambled[0]);
        let g2 = TripleGraph::from_raw_parts(
            g.labels_raw().to_vec(),
            g.kinds_raw().to_vec(),
            scrambled,
        )
        .unwrap();
        assert_eq!(g.triples(), g2.triples());
    }

    #[test]
    fn raw_parts_rejects_inconsistencies() {
        let (_, g) = tiny();
        let err = TripleGraph::from_raw_parts(
            g.labels_raw().to_vec(),
            vec![],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, RawPartsError::LengthMismatch { .. }));
        let err = TripleGraph::from_raw_parts(
            g.labels_raw().to_vec(),
            g.kinds_raw().to_vec(),
            vec![Triple::new(NodeId(0), NodeId(1), NodeId(99))],
        )
        .unwrap_err();
        assert!(matches!(err, RawPartsError::NodeOutOfRange { .. }));
    }
}
