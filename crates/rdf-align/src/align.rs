//! Alignments induced by partitions (§3.1).
//!
//! `Align(λ) = {(n, m) ∈ N1 × N2 | λ(n) = λ(m)}` — pairs of source and
//! target nodes sharing a color. Alignments defined by partitions are
//! exactly the binary relations with the *crossover property*:
//! `(n,m), (n,m'), (n',m) ∈ A ⟹ (n',m') ∈ A`.

use crate::partition::{Partition, SideCounts};
use rdf_model::{CombinedGraph, FxHashSet, NodeId};

/// A read-only view of the alignment induced by a partition over a
/// combined graph. Pairs are reported in *graph-local* node ids
/// (source-local, target-local).
pub struct AlignmentView<'a> {
    partition: &'a Partition,
    combined: &'a CombinedGraph,
}

impl<'a> AlignmentView<'a> {
    /// Wrap a partition of the combined graph.
    pub fn new(partition: &'a Partition, combined: &'a CombinedGraph) -> Self {
        assert_eq!(partition.len(), combined.graph().node_count());
        AlignmentView {
            partition,
            combined,
        }
    }

    /// Whether `(source-local n, target-local m) ∈ Align(λ)`.
    pub fn contains(&self, n: NodeId, m: NodeId) -> bool {
        let s = self.combined.from_source(n);
        let t = self.combined.from_target(m);
        self.partition.same_class(s, t)
    }

    /// Number of aligned pairs `|Align(λ)|` (can be quadratic in class
    /// sizes; computed without materialising).
    pub fn pair_count(&self) -> u64 {
        SideCounts::new(self.partition, self.combined).pair_count()
    }

    /// Materialise all aligned pairs in graph-local ids. Intended for
    /// tests and small graphs; prefer [`Self::pair_count`] at scale.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        SideCounts::new(self.partition, self.combined).for_each_pair(
            self.partition,
            self.combined,
            |s, t| out.push((s, self.combined.to_local(t).1)),
        );
        out.sort_unstable();
        out
    }

    /// The set of target-local nodes aligned with a source-local node.
    pub fn targets_of(&self, n: NodeId) -> Vec<NodeId> {
        let c = self.partition.color(self.combined.from_source(n));
        self.combined
            .target_nodes()
            .filter(|&t| self.partition.color(t) == c)
            .map(|t| self.combined.to_local(t).1)
            .collect()
    }

    /// The set of source-local nodes aligned with a target-local node.
    pub fn sources_of(&self, m: NodeId) -> Vec<NodeId> {
        let c = self.partition.color(self.combined.from_target(m));
        self.combined
            .source_nodes()
            .filter(|&s| self.partition.color(s) == c)
            .collect()
    }
}

/// Check the crossover property on an explicit pair set: whenever
/// `(n,m)`, `(n,m')`, `(n',m)` are present, so is `(n',m')`. Every
/// alignment induced by a partition satisfies this (§3.1); distance-based
/// alignments need not.
pub fn has_crossover_property(pairs: &[(NodeId, NodeId)]) -> bool {
    let set: FxHashSet<(NodeId, NodeId)> = pairs.iter().copied().collect();
    for &(n, m) in pairs {
        for &(n2, m2) in pairs {
            if m2 == m && n2 != n {
                // (n,m) and (n',m): for every (n,m') require (n',m').
                for &(n3, m3) in pairs {
                    if n3 == n && !set.contains(&(n2, m3)) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::trivial_partition;
    use rdf_model::{RdfGraphBuilder, Vocab};

    fn setup() -> (Vocab, CombinedGraph) {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.uul("y", "p", "b");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.uul("z", "p", "b");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        (v, c)
    }

    #[test]
    fn pairs_and_count_agree() {
        let (_, c) = setup();
        let p = trivial_partition(&c);
        let view = AlignmentView::new(&p, &c);
        let pairs = view.pairs();
        assert_eq!(pairs.len() as u64, view.pair_count());
        // Aligned: x, p, "a", "b" — 4 label-shared nodes.
        assert_eq!(pairs.len(), 4);
        for &(s, t) in &pairs {
            assert!(view.contains(s, t));
        }
    }

    #[test]
    fn crossover_property_of_partition_alignments() {
        let (_, c) = setup();
        let p = trivial_partition(&c);
        let view = AlignmentView::new(&p, &c);
        assert!(has_crossover_property(&view.pairs()));
    }

    #[test]
    fn crossover_property_violated_by_arbitrary_relation() {
        // (0,0), (0,1), (1,0) without (1,1) violates crossover.
        let pairs = vec![
            (NodeId(0), NodeId(0)),
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(0)),
        ];
        assert!(!has_crossover_property(&pairs));
        let mut ok = pairs.clone();
        ok.push((NodeId(1), NodeId(1)));
        assert!(has_crossover_property(&ok));
    }

    #[test]
    fn targets_and_sources_of() {
        let (_, c) = setup();
        let p = trivial_partition(&c);
        let view = AlignmentView::new(&p, &c);
        // Source node 0 is "x", target node 0 is "x".
        assert_eq!(view.targets_of(NodeId(0)), vec![NodeId(0)]);
        assert_eq!(view.sources_of(NodeId(0)), vec![NodeId(0)]);
        // "y" (source node 3) has no targets.
        assert!(view.targets_of(NodeId(3)).is_empty());
    }
}
