//! RDF graphs: triple graphs satisfying the RDF conventions of §2.1.
//!
//! An RDF graph is a triple graph in which
//! * no two nodes carry the same URI or literal label,
//! * literal labels occur only in object position, and
//! * predicates are never blank.
//!
//! [`RdfGraphBuilder`] offers the familiar term-level API (URIs, literals,
//! locally named blank nodes) and enforces those invariants, producing an
//! [`RdfGraph`] that owns the underlying [`TripleGraph`].

use crate::graph::{GraphBuilder, NodeId, Triple, TripleGraph};
use crate::hash::FxHashMap;
use crate::label::{LabelId, LabelKind, Vocab};
use std::fmt;

/// A term as written in RDF source: the builder-facing view of a node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// URI reference.
    Uri(String),
    /// Literal value.
    Literal(String),
    /// Blank node with a document-local name (e.g. `_:b1`). The name
    /// scopes node identity inside one graph only and is *not* a label.
    Blank(String),
}

impl Term {
    /// Convenience constructor for URI terms.
    pub fn uri(s: impl Into<String>) -> Self {
        Term::Uri(s.into())
    }

    /// Convenience constructor for literal terms.
    pub fn literal(s: impl Into<String>) -> Self {
        Term::Literal(s.into())
    }

    /// Convenience constructor for blank terms.
    pub fn blank(s: impl Into<String>) -> Self {
        Term::Blank(s.into())
    }
}

/// Errors raised when a triple violates the RDF conventions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// A literal was used as subject.
    LiteralSubject(String),
    /// A literal was used as predicate.
    LiteralPredicate(String),
    /// A blank node was used as predicate.
    BlankPredicate(String),
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::LiteralSubject(l) => {
                write!(f, "literal {l:?} used in subject position")
            }
            RdfError::LiteralPredicate(l) => {
                write!(f, "literal {l:?} used in predicate position")
            }
            RdfError::BlankPredicate(b) => {
                write!(f, "blank node _:{b} used in predicate position")
            }
        }
    }
}

impl std::error::Error for RdfError {}

/// An immutable RDF graph (one *version* in the alignment problem).
#[derive(Debug, Clone)]
pub struct RdfGraph {
    graph: TripleGraph,
    /// Local blank-node names, parallel to the blank nodes of the graph,
    /// kept for round-tripping and debugging (blank names are not labels).
    blank_names: FxHashMap<NodeId, String>,
}

impl RdfGraph {
    /// Assemble an RDF graph from an already-built triple graph and its
    /// blank-node names (deserialisation path; the builder invariants are
    /// assumed to have held when the graph was first built).
    pub fn from_raw_parts(
        graph: TripleGraph,
        blank_names: FxHashMap<NodeId, String>,
    ) -> Self {
        RdfGraph { graph, blank_names }
    }

    /// All recorded blank-node names, keyed by node id.
    pub fn blank_names(&self) -> &FxHashMap<NodeId, String> {
        &self.blank_names
    }

    /// The underlying triple graph.
    #[inline]
    pub fn graph(&self) -> &TripleGraph {
        &self.graph
    }

    /// The document-local name of a blank node, if it was built with one.
    pub fn blank_name(&self, n: NodeId) -> Option<&str> {
        self.blank_names.get(&n).map(String::as_str)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of triples.
    pub fn triple_count(&self) -> usize {
        self.graph.triple_count()
    }
}

/// Re-express `graph`'s labels in `vocab`, interning each label of
/// `from` once, in id order — `O(|dictionary|)` string work, nothing per
/// node or per triple. An empty `vocab` becomes a copy of `from`;
/// otherwise its table is first sized for the larger of the two, since
/// `from` may be in hash order (a store's dictionary), which a small
/// table would take in as one cluster.
///
/// This is how a graph held against its own vocabulary (the daemon's
/// cached stores) joins a shared session vocabulary (the alignment
/// pipeline requires both versions to share one [`Vocab`]). Node ids,
/// triples and blank names are preserved verbatim; only label ids are
/// rewritten.
pub fn rebase_into(
    vocab: &mut Vocab,
    from: &Vocab,
    graph: &RdfGraph,
) -> RdfGraph {
    let map: Vec<LabelId> = if vocab.is_empty() {
        // Interning every label of `from` into an empty vocabulary, in
        // id order, rebuilds `from` id for id: copy it instead.
        vocab.clone_from(from);
        (0..from.len()).map(|i| LabelId(i as u32)).collect()
    } else {
        vocab.reserve(
            vocab.len().max(from.len()),
            vocab.text_bytes().max(from.text_bytes()),
        );
        (0..from.len())
            .map(|i| {
                let id = LabelId(i as u32);
                vocab.intern(from.kind(id), from.text(id))
            })
            .collect()
    };
    let labels: Vec<LabelId> = graph
        .graph()
        .labels_raw()
        .iter()
        .map(|l| map[l.index()])
        .collect();
    RdfGraph::from_raw_parts(
        graph.graph().with_labels(labels),
        graph.blank_names().clone(),
    )
}

/// Marks a label with no node yet in [`RdfGraphBuilder`]'s dense map.
const NO_NODE: NodeId = NodeId(u32::MAX);

/// Builder enforcing RDF invariants; terms are deduplicated so that each
/// URI/literal label yields exactly one node.
pub struct RdfGraphBuilder<'v> {
    vocab: &'v mut Vocab,
    builder: GraphBuilder,
    /// Node of each label id, indexed densely by the id (vocabulary ids
    /// are dense); [`NO_NODE`] where the label has no node yet.
    by_label: Vec<NodeId>,
    by_blank_name: FxHashMap<String, NodeId>,
    blank_names: FxHashMap<NodeId, String>,
}

impl<'v> RdfGraphBuilder<'v> {
    /// New builder interning into (and sharing) `vocab`.
    pub fn new(vocab: &'v mut Vocab) -> Self {
        RdfGraphBuilder {
            vocab,
            builder: GraphBuilder::new(),
            by_label: Vec::new(),
            by_blank_name: FxHashMap::default(),
            blank_names: FxHashMap::default(),
        }
    }

    /// Node for a URI, reusing an existing node with the same label.
    pub fn uri_node(&mut self, text: &str) -> NodeId {
        let label = self.vocab.uri(text);
        self.labelled_node(label)
    }

    /// Node for a literal, reusing an existing node with the same label.
    pub fn literal_node(&mut self, text: &str) -> NodeId {
        let label = self.vocab.literal(text);
        self.labelled_node(label)
    }

    /// The one node of a URI or literal label, added on first use.
    fn labelled_node(&mut self, label: LabelId) -> NodeId {
        let i = label.index();
        if i >= self.by_label.len() {
            self.by_label.resize(self.vocab.len(), NO_NODE);
        }
        if self.by_label[i] == NO_NODE {
            self.by_label[i] = self.builder.add_node(label, self.vocab);
        }
        self.by_label[i]
    }

    /// Node for a locally named blank node; the same name maps to the same
    /// node within this builder.
    pub fn blank_node(&mut self, name: &str) -> NodeId {
        if let Some(&n) = self.by_blank_name.get(name) {
            return n;
        }
        let n = self.builder.add_node(LabelId::BLANK, self.vocab);
        self.by_blank_name.insert(name.to_owned(), n);
        self.blank_names.insert(n, name.to_owned());
        n
    }

    /// A fresh anonymous blank node (never merged with any other).
    pub fn fresh_blank(&mut self) -> NodeId {
        self.builder.add_node(LabelId::BLANK, self.vocab)
    }

    /// Resolve a [`Term`] to a node id, interning as necessary.
    pub fn term_node(&mut self, term: &Term) -> NodeId {
        match term {
            Term::Uri(u) => self.uri_node(u),
            Term::Literal(l) => self.literal_node(l),
            Term::Blank(b) => self.blank_node(b),
        }
    }

    /// Add a triple of already-resolved node ids, checking invariants.
    pub fn add_triple_ids(
        &mut self,
        s: NodeId,
        p: NodeId,
        o: NodeId,
    ) -> Result<(), RdfError> {
        use LabelKind::*;
        if self.kind_of(s) == Literal {
            return Err(RdfError::LiteralSubject(self.describe(s)));
        }
        match self.kind_of(p) {
            Literal => {
                return Err(RdfError::LiteralPredicate(self.describe(p)));
            }
            Blank => {
                return Err(RdfError::BlankPredicate(self.describe(p)));
            }
            Uri => {}
        }
        self.builder.add_triple(s, p, o);
        Ok(())
    }

    /// Add a triple of terms, interning as necessary and checking
    /// invariants.
    pub fn add_triple(
        &mut self,
        s: &Term,
        p: &Term,
        o: &Term,
    ) -> Result<(), RdfError> {
        // Validate before interning nodes so a rejected triple does not
        // leave orphan nodes behind.
        if let Term::Literal(l) = s { return Err(RdfError::LiteralSubject(l.clone())) }
        match p {
            Term::Literal(l) => {
                return Err(RdfError::LiteralPredicate(l.clone()))
            }
            Term::Blank(b) => return Err(RdfError::BlankPredicate(b.clone())),
            Term::Uri(_) => {}
        }
        let s = self.term_node(s);
        let p = self.term_node(p);
        let o = self.term_node(o);
        self.builder.add_triple(s, p, o);
        Ok(())
    }

    /// Shorthand: add `(uri, uri, uri)`.
    pub fn uuu(&mut self, s: &str, p: &str, o: &str) {
        let s = self.uri_node(s);
        let p = self.uri_node(p);
        let o = self.uri_node(o);
        self.builder.add_triple(s, p, o);
    }

    /// Shorthand: add `(uri, uri, literal)`.
    pub fn uul(&mut self, s: &str, p: &str, o: &str) {
        let s = self.uri_node(s);
        let p = self.uri_node(p);
        let o = self.literal_node(o);
        self.builder.add_triple(s, p, o);
    }

    /// Shorthand: add `(uri, uri, blank)`.
    pub fn uub(&mut self, s: &str, p: &str, o: &str) {
        let s = self.uri_node(s);
        let p = self.uri_node(p);
        let o = self.blank_node(o);
        self.builder.add_triple(s, p, o);
    }

    /// Shorthand: add `(blank, uri, literal)`.
    pub fn bul(&mut self, s: &str, p: &str, o: &str) {
        let s = self.blank_node(s);
        let p = self.uri_node(p);
        let o = self.literal_node(o);
        self.builder.add_triple(s, p, o);
    }

    /// Shorthand: add `(blank, uri, uri)`.
    pub fn buu(&mut self, s: &str, p: &str, o: &str) {
        let s = self.blank_node(s);
        let p = self.uri_node(p);
        let o = self.uri_node(o);
        self.builder.add_triple(s, p, o);
    }

    /// Shorthand: add `(blank, uri, blank)`.
    pub fn bub(&mut self, s: &str, p: &str, o: &str) {
        let s = self.blank_node(s);
        let p = self.uri_node(p);
        let o = self.blank_node(o);
        self.builder.add_triple(s, p, o);
    }

    fn kind_of(&self, n: NodeId) -> LabelKind {
        self.builder.kind(n)
    }

    fn describe(&self, n: NodeId) -> String {
        if let Some(name) = self.blank_names.get(&n) {
            return name.clone();
        }
        self.vocab.text(self.builder.label(n)).to_owned()
    }

    /// Sort and deduplicate the triples in place and hand back the
    /// graph's parts, without laying out its CSR: what a writer that
    /// only serialises the graph needs.
    pub fn finish_sorted(self) -> SortedGraph {
        let (labels, kinds, triples) = self.builder.into_sorted();
        SortedGraph {
            labels,
            kinds,
            triples,
            blank_names: self.blank_names,
        }
    }

    /// Freeze into an [`RdfGraph`]: [`RdfGraphBuilder::finish_sorted`],
    /// then the CSR layout ([`SortedGraph::into_graph`]).
    pub fn finish(self) -> RdfGraph {
        self.finish_sorted().into_graph()
    }
}

/// A built RDF graph before its CSR layout
/// ([`RdfGraphBuilder::finish_sorted`]): per-node labels and kinds, the
/// triples sorted by `(s, p, o)` without duplicates, and the blank
/// nodes' document-local names.
#[derive(Debug, Clone)]
pub struct SortedGraph {
    /// The label of every node, by node id.
    pub labels: Vec<LabelId>,
    /// The label kind of every node, by node id.
    pub kinds: Vec<LabelKind>,
    /// The triples, strictly ascending.
    pub triples: Vec<Triple>,
    /// Local blank-node names, keyed by node id.
    pub blank_names: FxHashMap<NodeId, String>,
}

impl SortedGraph {
    /// Lay the triples out as the CSR columns of an [`RdfGraph`].
    pub fn into_graph(self) -> RdfGraph {
        RdfGraph {
            graph: TripleGraph::from_sorted_triples(
                self.labels,
                self.kinds,
                &self.triples,
            ),
            blank_names: self.blank_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terms_deduplicate() {
        let mut v = Vocab::new();
        let mut b = RdfGraphBuilder::new(&mut v);
        let n1 = b.uri_node("x");
        let n2 = b.uri_node("x");
        assert_eq!(n1, n2);
        let l1 = b.literal_node("a");
        let l2 = b.literal_node("a");
        assert_eq!(l1, l2);
        let bl1 = b.blank_node("b1");
        let bl2 = b.blank_node("b1");
        let bl3 = b.blank_node("b2");
        assert_eq!(bl1, bl2);
        assert_ne!(bl1, bl3);
    }

    #[test]
    fn fresh_blanks_are_distinct() {
        let mut v = Vocab::new();
        let mut b = RdfGraphBuilder::new(&mut v);
        let x = b.fresh_blank();
        let y = b.fresh_blank();
        assert_ne!(x, y);
    }

    #[test]
    fn literal_subject_rejected() {
        let mut v = Vocab::new();
        let mut b = RdfGraphBuilder::new(&mut v);
        let err = b
            .add_triple(&Term::literal("x"), &Term::uri("p"), &Term::uri("y"))
            .unwrap_err();
        assert_eq!(err, RdfError::LiteralSubject("x".into()));
    }

    #[test]
    fn blank_predicate_rejected() {
        let mut v = Vocab::new();
        let mut b = RdfGraphBuilder::new(&mut v);
        let err = b
            .add_triple(&Term::uri("x"), &Term::blank("p"), &Term::uri("y"))
            .unwrap_err();
        assert_eq!(err, RdfError::BlankPredicate("p".into()));
    }

    #[test]
    fn literal_predicate_rejected() {
        let mut v = Vocab::new();
        let mut b = RdfGraphBuilder::new(&mut v);
        let err = b
            .add_triple(&Term::uri("x"), &Term::literal("p"), &Term::uri("y"))
            .unwrap_err();
        assert_eq!(err, RdfError::LiteralPredicate("p".into()));
    }

    #[test]
    fn rejected_triple_leaves_no_orphan_nodes() {
        let mut v = Vocab::new();
        let mut b = RdfGraphBuilder::new(&mut v);
        b.add_triple(&Term::uri("s"), &Term::blank("p"), &Term::uri("o"))
            .unwrap_err();
        let g = b.finish();
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn rebase_preserves_structure_and_shares_labels() {
        // Build a graph against its own vocab (as a store load does)…
        let mut own = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut own);
            b.uub("ss", "address", "b1");
            b.bul("b1", "zip", "EH8");
            b.finish()
        };
        // …then rebase it into a session vocab that already holds some
        // of the labels at different ids.
        let mut session = Vocab::new();
        session.uri("unrelated");
        let zip = session.uri("zip");
        let rebased = rebase_into(&mut session, &own, &g);
        assert_eq!(rebased.node_count(), g.node_count());
        assert!(rebased.graph().triples().eq(g.graph().triples()));
        assert_eq!(rebased.graph().kinds_raw(), g.graph().kinds_raw());
        assert_eq!(rebased.blank_names(), g.blank_names());
        // The shared label resolves to the session's existing id.
        let zip_node = g
            .graph()
            .nodes()
            .find(|&n| own.text(g.graph().label(n)) == "zip")
            .unwrap();
        assert_eq!(rebased.graph().label(zip_node), zip);
        // Rebasing into a fresh vocab twice is idempotent on label text.
        for n in g.graph().nodes() {
            assert_eq!(
                session.text(rebased.graph().label(n)),
                own.text(g.graph().label(n))
            );
        }
    }

    #[test]
    fn figure1_version1_shape() {
        // The version-1 graph of Figure 1.
        let mut v = Vocab::new();
        let mut b = RdfGraphBuilder::new(&mut v);
        b.uub("ss", "address", "b1");
        b.uuu("ss", "employer", "ed-uni");
        b.uub("ss", "name", "b2");
        b.bul("b1", "zip", "EH8");
        b.bul("b1", "city", "Edinburgh");
        b.uul("ed-uni", "name", "University of Edinburgh");
        b.uul("ed-uni", "city", "Edinburgh");
        b.bul("b2", "first", "Slawek");
        b.bul("b2", "middle", "Pawel");
        b.bul("b2", "last", "Staworko");
        let g = b.finish();
        // Nodes: ss, address, b1, employer, ed-uni, name, b2, zip, "EH8",
        // city, "Edinburgh", "University of Edinburgh", first, "Slawek",
        // middle, "Pawel", last, "Staworko" = 18
        assert_eq!(g.node_count(), 18);
        assert_eq!(g.triple_count(), 10);
        assert_eq!(g.graph().blanks().len(), 2);
        assert_eq!(g.graph().literals().len(), 6);
        assert_eq!(g.blank_name(g.graph().blanks()[0]), Some("b1"));
    }
}
