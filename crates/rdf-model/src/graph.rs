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
use crate::view::{SortedColumns, ViewError};
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
/// The edges are held once, as the CSR columns of `out`: per-node
/// offsets and parallel predicate and object columns, grouped by
/// subject and ascending by `(p, o)` within a group. That order is the
/// `(s, p, o)` order of the triples, so [`TripleGraph::triples`]
/// derives each subject from the offsets instead of storing it.
///
/// Build one through [`GraphBuilder`] (whose freeze step sorts and
/// deduplicates triples: edge *sets*, not multisets) or
/// [`GraphAppender`] (which concatenates already-sorted parts).
#[derive(Debug, Clone)]
pub struct TripleGraph {
    labels: Vec<LabelId>,
    kinds: Vec<LabelKind>,
    /// CSR offsets: the out-edges of node `n` are edges
    /// `offsets[n] .. offsets[n + 1]`.
    offsets: Vec<u32>,
    /// Predicate of every edge, grouped by subject.
    preds: Vec<NodeId>,
    /// Object of every edge, parallel to `preds`.
    objs: Vec<NodeId>,
}

impl TripleGraph {
    /// The graph with no nodes.
    fn empty() -> TripleGraph {
        TripleGraph {
            labels: Vec::new(),
            kinds: Vec::new(),
            offsets: vec![0],
            preds: Vec::new(),
            objs: Vec::new(),
        }
    }

    /// Lay out sorted, duplicate-free triples whose node ids are below
    /// `labels.len()` as CSR columns.
    pub(crate) fn from_sorted_triples(
        labels: Vec<LabelId>,
        kinds: Vec<LabelKind>,
        triples: &[Triple],
    ) -> TripleGraph {
        let mut offsets = Vec::new();
        let subjects = triples.iter().map(|t| t.s);
        extend_offsets(&mut offsets, labels.len(), subjects);
        TripleGraph {
            labels,
            kinds,
            offsets,
            preds: triples.iter().map(|t| t.p).collect(),
            objs: triples.iter().map(|t| t.o).collect(),
        }
    }

    /// A copy with the same kinds and edges and the given labels, for
    /// relabelling through a vocabulary map; `labels` must have one
    /// entry per node.
    pub(crate) fn with_labels(&self, labels: Vec<LabelId>) -> TripleGraph {
        assert_eq!(labels.len(), self.labels.len(), "one label per node");
        TripleGraph {
            labels,
            kinds: self.kinds.clone(),
            offsets: self.offsets.clone(),
            preds: self.preds.clone(),
            objs: self.objs.clone(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of (distinct) triples.
    #[inline]
    pub fn triple_count(&self) -> usize {
        self.preds.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// All triples, in `(s, p, o)` order.
    #[inline]
    pub fn triples(&self) -> Triples<'_> {
        Triples {
            offsets: &self.offsets,
            preds: &self.preds,
            objs: &self.objs,
            s: 0,
            j: 0,
        }
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

    /// The outbound neighbourhood `out(n)`: its `(predicate, object)`
    /// pairs, sorted lexicographically.
    #[inline]
    pub fn out(&self, n: NodeId) -> OutEdges<'_> {
        let lo = self.offsets[n.index()] as usize;
        let hi = self.offsets[n.index() + 1] as usize;
        OutEdges {
            preds: &self.preds[lo..hi],
            objs: &self.objs[lo..hi],
        }
    }

    /// Out-degree `|out(n)|`.
    #[inline]
    pub fn out_degree(&self, n: NodeId) -> usize {
        (self.offsets[n.index() + 1] - self.offsets[n.index()]) as usize
    }

    /// The grouped-CSR (struct-of-arrays) form of the outbound
    /// adjacency: this graph's own offsets, predicate and object
    /// columns, borrowed. Hot loops that touch every out-edge of every
    /// node (the refinement signature phase) stream these contiguous
    /// `u32` columns.
    #[inline]
    pub fn out_columns(&self) -> OutColumns<'_> {
        OutColumns {
            offsets: &self.offsets,
            preds: &self.preds,
            objs: &self.objs,
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
        self.out(s).contains(p, o)
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
    /// Label ids are taken at face value, so no string hashing or
    /// interning happens per node or per triple. Triples may arrive in
    /// any order; they are sorted and deduplicated exactly as
    /// [`GraphBuilder::freeze`] would, so the result is identical to a
    /// fresh build from the same parts.
    ///
    /// Returns an error (not a panic) if the arrays are inconsistent:
    /// `labels` and `kinds` lengths differ, or a triple references a node
    /// id out of range.
    pub fn from_raw_parts(
        labels: Vec<LabelId>,
        kinds: Vec<LabelKind>,
        mut triples: Vec<Triple>,
    ) -> Result<TripleGraph, RawPartsError> {
        check_kinds(&labels, &kinds)?;
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
        if !triples.windows(2).all(|w| w[0] < w[1]) {
            triples.sort_unstable();
            triples.dedup();
        }
        Ok(TripleGraph::from_sorted_triples(labels, kinds, &triples))
    }
}

/// One kind per label.
fn check_kinds(
    labels: &[LabelId],
    kinds: &[LabelKind],
) -> Result<(), RawPartsError> {
    if labels.len() != kinds.len() {
        return Err(RawPartsError::LengthMismatch {
            labels: labels.len(),
            kinds: kinds.len(),
        });
    }
    Ok(())
}

/// The triples of a [`TripleGraph`] in `(s, p, o)` order (see
/// [`TripleGraph::triples`]); each subject is read off the CSR offsets.
#[derive(Debug, Clone)]
pub struct Triples<'g> {
    offsets: &'g [u32],
    preds: &'g [NodeId],
    objs: &'g [NodeId],
    /// Subject of edge `j` or a node before it.
    s: usize,
    /// The next edge.
    j: usize,
}

impl Iterator for Triples<'_> {
    type Item = Triple;

    #[inline]
    fn next(&mut self) -> Option<Triple> {
        let j = self.j;
        if j == self.preds.len() {
            return None;
        }
        while self.offsets[self.s + 1] as usize <= j {
            self.s += 1;
        }
        self.j += 1;
        Some(Triple::new(
            NodeId(self.s as u32),
            self.preds[j],
            self.objs[j],
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.preds.len() - self.j;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Triples<'_> {}

/// The `(predicate, object)` pairs of one node's `out(n)`, ascending
/// (see [`TripleGraph::out`]): two parallel slices of the graph's
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutEdges<'g> {
    preds: &'g [NodeId],
    objs: &'g [NodeId],
}

/// Iterator over the pairs of an [`OutEdges`].
pub type OutIter<'g> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'g, NodeId>>,
    std::iter::Copied<std::slice::Iter<'g, NodeId>>,
>;

impl<'g> OutEdges<'g> {
    /// Number of out-edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the node has no out-edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The `(predicate, object)` pairs, ascending.
    #[inline]
    pub fn iter(&self) -> OutIter<'g> {
        self.preds.iter().copied().zip(self.objs.iter().copied())
    }

    /// Whether `(p, o)` is one of the pairs (binary search).
    pub fn contains(&self, p: NodeId, o: NodeId) -> bool {
        let lo = self.preds.partition_point(|&q| q < p);
        let hi = lo + self.preds[lo..].partition_point(|&q| q == p);
        self.objs[lo..hi].binary_search(&o).is_ok()
    }
}

impl<'g> IntoIterator for OutEdges<'g> {
    type Item = (NodeId, NodeId);
    type IntoIter = OutIter<'g>;

    #[inline]
    fn into_iter(self) -> OutIter<'g> {
        self.iter()
    }
}

/// Grouped-CSR form of a graph's outbound adjacency: `(pred, obj)`
/// column slices with per-node offsets. Edge `j` of node `n` is
/// `(preds()[j], objs()[j])` for `j` in `range(n)`, in the same sorted
/// order as [`TripleGraph::out`].
///
/// Every column is borrowed: from a resident graph's own columns
/// ([`TripleGraph::out_columns`]) or from a view over a store buffer
/// ([`crate::view::TripleGraphView::out_columns`]).
#[derive(Debug, Clone, Copy)]
pub struct OutColumns<'g> {
    offsets: &'g [u32],
    preds: &'g [NodeId],
    objs: &'g [NodeId],
}

impl<'g> OutColumns<'g> {
    /// Assemble a view from raw columns.
    ///
    /// Validates the CSR shape once (`O(nodes + edges)` comparisons,
    /// no allocation): offsets must be non-empty and non-decreasing,
    /// and the final offset must equal both column lengths. Returns
    /// `None` on any violation; a malformed view would otherwise
    /// surface as an index panic inside a refinement worker.
    pub fn from_parts(
        offsets: &'g [u32],
        preds: &'g [NodeId],
        objs: &'g [NodeId],
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
    pub fn preds(&self) -> &'g [NodeId] {
        self.preds
    }

    /// The object column, indexed by edge.
    #[inline]
    pub fn objs(&self) -> &'g [NodeId] {
        self.objs
    }

    /// The per-node offsets (length `node_count + 1`).
    #[inline]
    pub fn offsets(&self) -> &'g [u32] {
        self.offsets
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

    /// Sort the triples and remove duplicates, in place, and hand back
    /// the parts: per-node labels, per-node kinds and the strictly
    /// ascending triples. Nothing is laid out, so a caller that only
    /// serialises the graph never builds its CSR.
    pub fn into_sorted(
        mut self,
    ) -> (Vec<LabelId>, Vec<LabelKind>, Vec<Triple>) {
        self.triples.sort_unstable();
        self.triples.dedup();
        (self.labels, self.kinds, self.triples)
    }

    /// Freeze into an immutable graph: sorts triples, removes duplicates,
    /// and lays out the CSR columns.
    pub fn freeze(self) -> TripleGraph {
        let (labels, kinds, triples) = self.into_sorted();
        TripleGraph::from_sorted_triples(labels, kinds, &triples)
    }
}

/// Builds a [`TripleGraph`] from whole parts appended one after
/// another, without a sort.
///
/// A part is a graph with its own node ids `0..n`; appended, its ids
/// are offset by the nodes of the parts before it. Each part's triples
/// are strictly ascending and the parts' id ranges are disjoint and
/// increasing, so the concatenation is sorted and duplicate-free as it
/// stands. This is how the disjoint union of two versions is built
/// straight from their inputs ([`crate::CombinedGraph::union`] appends
/// two graphs; a store load appends its columns).
#[derive(Debug, Clone)]
pub struct GraphAppender {
    graph: TripleGraph,
}

impl Default for GraphAppender {
    fn default() -> Self {
        GraphAppender {
            graph: TripleGraph::empty(),
        }
    }
}

impl GraphAppender {
    /// An appender holding no part.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes appended so far: the id offset of the next part.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Reserve room for parts of `nodes` nodes and `triples` triples in
    /// all, so that appending them moves no edge column: the offsets and
    /// both edge columns are allocated once, at their final size,
    /// whatever order the parts come in. The first part's labels and
    /// kinds are taken as they are, and grow once per later part.
    pub fn reserve(&mut self, nodes: usize, triples: usize) {
        let g = &mut self.graph;
        g.offsets.reserve_exact(nodes);
        g.preds.reserve_exact(triples);
        g.objs.reserve_exact(triples);
    }

    /// Append a part given as per-node labels and kinds and the
    /// `(s, p, o)` columns of its triples, in part-local ids: one
    /// [`GraphAppender::part`] fed all the triples at once.
    ///
    /// Checks one kind per label and everything
    /// [`crate::TripleGraphView::from_sorted_columns`] checks — equal
    /// column lengths, ids below the part's node count, and the triples
    /// strictly ascending; on error the appender is unchanged.
    pub fn append_columns(
        &mut self,
        labels: Vec<LabelId>,
        kinds: Vec<LabelKind>,
        s: &[NodeId],
        p: &[NodeId],
        o: &[NodeId],
    ) -> Result<(), ViewError> {
        let mut part = self.part(labels, kinds, s.len())?;
        part.push(s, p, o)?;
        part.finish();
        Ok(())
    }

    /// Start appending a part of `labels.len()` nodes, with their
    /// kinds, and `triples` triples, which are then fed in order as
    /// runs of `(s, p, o)` columns ([`PartAppender::push`]). Each run is
    /// checked as it is appended, so a caller can read a part's columns
    /// a window at a time and be done with each window once it is
    /// pushed. A part that is dropped before
    /// [`PartAppender::finish`] — because a check failed, or for any
    /// other reason — is taken out again, leaving the appender as it
    /// was.
    pub fn part(
        &mut self,
        labels: Vec<LabelId>,
        kinds: Vec<LabelKind>,
        triples: usize,
    ) -> Result<PartAppender<'_>, ViewError> {
        check_kinds(&labels, &kinds).map_err(ViewError::Raw)?;
        let g = &mut self.graph;
        let (base, edges, offsets) =
            (g.labels.len(), g.preds.len(), g.offsets.len());
        let nodes = labels.len();
        if base == 0 {
            g.labels = labels;
            g.kinds = kinds;
        } else {
            g.labels.extend_from_slice(&labels);
            g.kinds.extend_from_slice(&kinds);
        }
        // The offsets grow after the labels: growing them first moved
        // the heap layout and raised `align`'s peak by 7 MiB at scale
        // 400. They grow once, to their exact size (see
        // `extend_offsets`).
        g.offsets.reserve_exact(nodes + usize::from(g.offsets.is_empty()));
        if g.offsets.is_empty() {
            g.offsets.push(0);
        }
        let first = g.offsets.len();
        g.offsets.resize(first + nodes, 0);
        g.preds.reserve_exact(triples);
        g.objs.reserve_exact(triples);
        Ok(PartAppender {
            graph: g,
            rollback: (base, edges, offsets),
            first,
            sorted: SortedColumns::new(nodes),
            finished: false,
        })
    }

    /// Append a whole graph as the next part.
    pub fn append_graph(&mut self, part: &TripleGraph) {
        self.graph.labels.extend_from_slice(&part.labels);
        self.append_edges(part);
    }

    /// Append a whole graph as the next part, with each of its labels
    /// `l` replaced by `map[l]` (an id of another vocabulary: the
    /// session's, for a graph parsed into its own).
    ///
    /// # Panics
    ///
    /// If a label of `part` has no entry in `map`.
    pub fn append_relabelled(&mut self, part: &TripleGraph, map: &[LabelId]) {
        let labels = part.labels.iter().map(|l| map[l.index()]);
        self.graph.labels.extend(labels);
        self.append_edges(part);
    }

    /// Append `part`'s kinds, offsets and edges, after its labels.
    fn append_edges(&mut self, part: &TripleGraph) {
        let g = &mut self.graph;
        let base = g.kinds.len() as u32;
        let edges = g.preds.len() as u32;
        g.kinds.extend_from_slice(&part.kinds);
        g.offsets.reserve_exact(part.node_count());
        g.offsets.extend(part.offsets[1..].iter().map(|&e| edges + e));
        extend_shifted(&mut g.preds, &part.preds, base);
        extend_shifted(&mut g.objs, &part.objs, base);
    }

    /// The graph of every part appended, in order.
    pub fn finish(self) -> TripleGraph {
        self.graph
    }
}

/// One part being appended to a [`GraphAppender`] (see
/// [`GraphAppender::part`]): its labels and kinds are in, and its
/// triples are pushed in runs. Until [`PartAppender::finish`], the
/// part's offsets hold per-node edge counts; dropping it unfinished
/// takes the part out again.
pub struct PartAppender<'g> {
    graph: &'g mut TripleGraph,
    /// Label, edge and offset counts before the part.
    rollback: (usize, usize, usize),
    /// Index of the part's first node's entry in the offsets.
    first: usize,
    /// The checks of the triples pushed so far.
    sorted: SortedColumns,
    finished: bool,
}

impl PartAppender<'_> {
    /// The part's node kinds, by part-local id.
    pub fn kinds(&self) -> &[LabelKind] {
        &self.graph.kinds[self.rollback.0..]
    }

    /// Append the next run of triples, given as equally long `(s, p,
    /// o)` columns in part-local ids. Every id must be below the part's
    /// node count, and the triples must ascend strictly, within the run
    /// and after the last one pushed; a run that breaks either is
    /// refused (its index is the triple's within the part), and the
    /// part must then be dropped.
    pub fn push(
        &mut self,
        s: &[NodeId],
        p: &[NodeId],
        o: &[NodeId],
    ) -> Result<(), ViewError> {
        self.sorted.check(s, p, o)?;
        let g = &mut *self.graph;
        let counts = &mut g.offsets[self.first..];
        for s in s {
            counts[s.index()] += 1;
        }
        let base = self.rollback.0 as u32;
        extend_shifted(&mut g.preds, p, base);
        extend_shifted(&mut g.objs, o, base);
        Ok(())
    }

    /// Complete the part: its per-node edge counts become CSR offsets.
    pub fn finish(mut self) {
        let offsets = &mut self.graph.offsets;
        let mut edges = offsets[self.first - 1];
        for c in &mut offsets[self.first..] {
            edges += *c;
            *c = edges;
        }
        self.finished = true;
    }
}

impl Drop for PartAppender<'_> {
    fn drop(&mut self) {
        if !self.finished {
            let (labels, edges, offsets) = self.rollback;
            let g = &mut *self.graph;
            g.labels.truncate(labels);
            g.kinds.truncate(labels);
            g.offsets.truncate(offsets);
            g.preds.truncate(edges);
            g.objs.truncate(edges);
        }
    }
}

/// Append the CSR offsets of `nodes` more nodes to `offsets`, whose
/// last entry is the edge count so far (an empty `offsets` starts a
/// graph at edge 0): node `i`'s entry is that count plus the edges of
/// nodes `0..=i` in `subjects`, the subject of every new edge in edge
/// order. The subjects must be ascending and below `nodes`; every
/// graph constructor builds its offsets here.
///
/// The vector grows once, to its exact size: growing a new graph's
/// offsets from a one-entry vector instead left `rdf serve`'s peak
/// resident set 33 MiB higher at scale 400.
pub(crate) fn extend_offsets(
    offsets: &mut Vec<u32>,
    nodes: usize,
    subjects: impl IntoIterator<Item = NodeId>,
) {
    offsets.reserve_exact(nodes + usize::from(offsets.is_empty()));
    if offsets.is_empty() {
        offsets.push(0);
    }
    let first = offsets.len();
    let mut edges = offsets[first - 1];
    offsets.resize(first + nodes, 0);
    let counts = &mut offsets[first..];
    for s in subjects {
        counts[s.index()] += 1;
    }
    for c in counts {
        edges += *c;
        *c = edges;
    }
}

/// Append `ids`, each offset by `base`, reserving exactly their count.
fn extend_shifted(column: &mut Vec<NodeId>, ids: &[NodeId], base: u32) {
    column.reserve_exact(ids.len());
    column.extend(ids.iter().map(|id| NodeId(id.0 + base)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(g: &TripleGraph, n: NodeId) -> Vec<(NodeId, NodeId)> {
        g.out(n).iter().collect()
    }

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
        assert_eq!(pairs(&g, w), [(p, b1)]);
        assert_eq!(pairs(&g, b1), [(q, a)]);
        assert_eq!(pairs(&g, a), []);
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
        assert_eq!(pairs(&g, x), [(p, q), (p, y), (q, y)]);
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
            assert_eq!(pairs, self::pairs(&g, n));
        }
        let empty = GraphBuilder::new().freeze();
        assert!(empty.out_columns().is_empty());
    }

    /// Everything a graph holds, for comparing appender states.
    fn parts(g: &TripleGraph) -> (Vec<LabelId>, Vec<LabelKind>, Vec<Triple>) {
        (g.labels.clone(), g.kinds.clone(), g.triples().collect())
    }

    /// A part fed in runs: each run is checked against the last triple
    /// of the runs before it, an error's index is the triple's within
    /// the part, and a part dropped unfinished — after a refused run, or
    /// after good runs only — leaves the appender as it was, whether it
    /// held a part before or none. Pushed in order, the runs append what
    /// one `append_columns` appends.
    #[test]
    fn part_runs_are_checked_across_runs_and_rolled_back() {
        // A chain 0 -> 1 -> .. -> 5 under predicate node 6.
        let nodes = 7;
        let labels: Vec<LabelId> = (1..=nodes).map(LabelId).collect();
        let kinds = vec![LabelKind::Uri; nodes as usize];
        let s: Vec<NodeId> = (0..5).map(NodeId).collect();
        let p = vec![NodeId(6); 5];
        let o: Vec<NodeId> = (1..6).map(NodeId).collect();
        let runs = [0..2, 2..4, 4..5];
        let feed = |appender: &mut GraphAppender,
                    s: &[NodeId],
                    o: &[NodeId],
                    finish: bool| {
            let mut part =
                appender.part(labels.clone(), kinds.clone(), s.len())?;
            for r in runs.clone() {
                part.push(&s[r.clone()], &p[r.clone()], &o[r])?;
            }
            if finish {
                part.finish();
            }
            Ok::<(), ViewError>(())
        };
        // Records 1 and 2 swapped: the pair straddles the first run
        // boundary, and record 2 is the one that descends.
        let (mut s_bad, mut o_bad) = (s.clone(), o.clone());
        s_bad.swap(1, 2);
        o_bad.swap(1, 2);
        // Record 4, alone in the last run, names a node beyond the part.
        let mut o_far = o.clone();
        o_far[4] = NodeId(nodes);

        let (_, g) = tiny();
        for held in [None, Some(&g)] {
            let mut appender = GraphAppender::new();
            if let Some(g) = held {
                appender.append_graph(g);
            }
            let before = parts(&appender.clone().finish());
            assert_eq!(
                feed(&mut appender, &s_bad, &o_bad, true),
                Err(ViewError::Unsorted { at: 2 })
            );
            assert_eq!(parts(&appender.clone().finish()), before);
            assert!(matches!(
                feed(&mut appender, &s, &o_far, true),
                Err(ViewError::Raw(RawPartsError::NodeOutOfRange { .. }))
            ));
            assert_eq!(parts(&appender.clone().finish()), before);
            feed(&mut appender, &s, &o, false).unwrap();
            assert_eq!(parts(&appender.clone().finish()), before);

            feed(&mut appender, &s, &o, true).unwrap();
            let mut whole = GraphAppender::new();
            if let Some(g) = held {
                whole.append_graph(g);
            }
            whole
                .append_columns(labels.clone(), kinds.clone(), &s, &p, &o)
                .unwrap();
            let (fed, whole) = (appender.finish(), whole.finish());
            assert_eq!(parts(&fed), parts(&whole));
            assert_eq!(fed.offsets, whole.offsets);
        }
    }

    #[test]
    fn raw_parts_round_trip() {
        let (_, g) = tiny();
        let g2 = TripleGraph::from_raw_parts(
            g.labels_raw().to_vec(),
            g.kinds_raw().to_vec(),
            g.triples().collect(),
        )
        .unwrap();
        assert_eq!(g.labels_raw(), g2.labels_raw());
        assert_eq!(g.kinds_raw(), g2.kinds_raw());
        assert!(g.triples().eq(g2.triples()));
        for n in g.nodes() {
            assert_eq!(pairs(&g, n), pairs(&g2, n));
        }
    }

    #[test]
    fn raw_parts_sorts_and_dedups_unsorted_input() {
        let (_, g) = tiny();
        let mut scrambled: Vec<Triple> = g.triples().collect();
        scrambled.reverse();
        scrambled.push(scrambled[0]);
        let g2 = TripleGraph::from_raw_parts(
            g.labels_raw().to_vec(),
            g.kinds_raw().to_vec(),
            scrambled,
        )
        .unwrap();
        assert!(g.triples().eq(g2.triples()));
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
