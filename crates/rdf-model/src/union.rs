//! Disjoint union `G = G1 ⊎ G2` of a source and a target version (§2.1/§3).
//!
//! Node identifiers of the two versions are made disjoint by offsetting the
//! target's ids by `|N1|`. The union remembers which side every node came
//! from, which the alignment machinery needs to decide "unaligned" status
//! (a node of one graph whose class contains no node of the opposite graph).

use crate::graph::{GraphAppender, NodeId, TripleGraph};
use crate::label::Vocab;
use crate::rdf::RdfGraph;
use std::sync::Arc;

/// Which version a node of the combined graph originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The source version `G1`.
    Source,
    /// The target version `G2`.
    Target,
}

impl Side {
    /// The opposite side.
    pub fn opposite(self) -> Side {
        match self {
            Side::Source => Side::Target,
            Side::Target => Side::Source,
        }
    }
}

/// The combined graph `G1 ⊎ G2` with provenance.
///
/// The graph sits behind an [`Arc`], so a clone is cheap: a held union
/// (the daemon's session) is shared with every alignment of it rather
/// than rebuilt.
#[derive(Debug, Clone)]
pub struct CombinedGraph {
    graph: Arc<TripleGraph>,
    /// Number of nodes contributed by the source version; nodes
    /// `0..n1` are source, `n1..` are target.
    n1: u32,
}

impl CombinedGraph {
    /// Build the disjoint union of two RDF graphs. Both must have been
    /// built against the same [`Vocab`] so that label ids agree.
    pub fn union(vocab: &Vocab, g1: &RdfGraph, g2: &RdfGraph) -> Self {
        Self::union_graphs(vocab, g1.graph(), g2.graph())
    }

    /// Disjoint union of raw triple graphs sharing a vocabulary: `g1`
    /// appended, then `g2` (see [`GraphAppender`]).
    pub fn union_graphs(
        _vocab: &Vocab,
        g1: &TripleGraph,
        g2: &TripleGraph,
    ) -> Self {
        let mut b = GraphAppender::new();
        b.append_graph(g1);
        b.append_graph(g2);
        Self::from_parts(b.finish(), g1.node_count())
    }

    /// The union held by `graph`, whose first `source_len` nodes are
    /// the source version's and the rest the target's: a graph built by
    /// appending the source, then the target, to one [`GraphAppender`].
    ///
    /// # Panics
    ///
    /// If `source_len` exceeds the graph's node count.
    pub fn from_parts(graph: TripleGraph, source_len: usize) -> Self {
        assert!(
            source_len <= graph.node_count(),
            "source of {source_len} nodes in a union of {}",
            graph.node_count()
        );
        CombinedGraph {
            graph: Arc::new(graph),
            n1: source_len as u32,
        }
    }

    /// The combined triple graph.
    #[inline]
    pub fn graph(&self) -> &TripleGraph {
        &self.graph
    }

    /// Which version a node came from.
    #[inline]
    pub fn side(&self, n: NodeId) -> Side {
        if n.0 < self.n1 {
            Side::Source
        } else {
            Side::Target
        }
    }

    /// Number of source nodes.
    #[inline]
    pub fn source_len(&self) -> usize {
        self.n1 as usize
    }

    /// Number of target nodes.
    #[inline]
    pub fn target_len(&self) -> usize {
        self.graph.node_count() - self.n1 as usize
    }

    /// Iterator over source-side node ids.
    pub fn source_nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.n1).map(NodeId)
    }

    /// Iterator over target-side node ids.
    pub fn target_nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (self.n1..self.graph.node_count() as u32).map(NodeId)
    }

    /// Map a node id of `G1` into the combined graph (identity).
    #[inline]
    pub fn from_source(&self, n: NodeId) -> NodeId {
        debug_assert!(n.0 < self.n1);
        n
    }

    /// Map a node id of `G2` into the combined graph (offset by `|N1|`).
    #[inline]
    pub fn from_target(&self, n: NodeId) -> NodeId {
        NodeId(n.0 + self.n1)
    }

    /// Map a combined-graph node back to its original graph-local id.
    #[inline]
    pub fn to_local(&self, n: NodeId) -> (Side, NodeId) {
        if n.0 < self.n1 {
            (Side::Source, n)
        } else {
            (Side::Target, NodeId(n.0 - self.n1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdf::RdfGraphBuilder;

    fn two_versions() -> (Vocab, RdfGraph, RdfGraph) {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "b");
            b.finish()
        };
        (v, g1, g2)
    }

    #[test]
    fn union_offsets_target_ids() {
        let (v, g1, g2) = two_versions();
        let c = CombinedGraph::union(&v, &g1, &g2);
        assert_eq!(c.graph().node_count(), 6);
        assert_eq!(c.graph().triple_count(), 2);
        assert_eq!(c.source_len(), 3);
        assert_eq!(c.target_len(), 3);
        assert_eq!(c.side(NodeId(0)), Side::Source);
        assert_eq!(c.side(NodeId(3)), Side::Target);
        assert_eq!(c.to_local(NodeId(4)), (Side::Target, NodeId(1)));
        assert_eq!(c.from_target(NodeId(1)), NodeId(4));
    }

    #[test]
    fn labels_shared_across_versions() {
        let (v, g1, g2) = two_versions();
        let c = CombinedGraph::union(&v, &g1, &g2);
        // "x" in both versions has the same label id, different node ids.
        let x1 = NodeId(0);
        let x2 = c.from_target(NodeId(0));
        assert_ne!(x1, x2);
        assert_eq!(c.graph().label(x1), c.graph().label(x2));
        // "a" and "b" differ.
        let a = NodeId(2);
        let b = c.from_target(NodeId(2));
        assert_ne!(c.graph().label(a), c.graph().label(b));
    }

    #[test]
    fn triples_preserved_per_side() {
        let (v, g1, g2) = two_versions();
        let c = CombinedGraph::union(&v, &g1, &g2);
        // x --p--> "a" on source side.
        assert!(c.graph().has_triple(NodeId(0), NodeId(1), NodeId(2)));
        // x --p--> "b" on target side (offset by 3).
        assert!(c.graph().has_triple(NodeId(3), NodeId(4), NodeId(5)));
        // No cross-side triples.
        assert!(!c.graph().has_triple(NodeId(0), NodeId(1), NodeId(5)));
    }

    #[test]
    fn opposite_side() {
        assert_eq!(Side::Source.opposite(), Side::Target);
        assert_eq!(Side::Target.opposite(), Side::Source);
    }

    #[test]
    fn self_union() {
        let (v, g1, _) = two_versions();
        let c = CombinedGraph::union(&v, &g1, &g1);
        assert_eq!(c.source_len(), c.target_len());
        assert_eq!(c.graph().triple_count(), 2);
    }
}
