//! Reference implementation of maximal bisimulation (Definition 2).
//!
//! A direct, obviously-correct fixpoint computation of `Bisim(G)` used to
//! validate the hash-based refinement engine (Proposition 1 states the two
//! coincide). Complexity is O(n² · d²) per round — only for tests and
//! small graphs.

use crate::partition::Partition;
use rdf_model::{NodeId, TripleGraph};

/// Compute the maximal bisimulation on `G` as a boolean relation matrix.
///
/// Starts from `R₀ = {(n, m) | ℓ(n) = ℓ(m)}` and repeatedly removes pairs
/// violating the simulation conditions in either direction until a
/// fixpoint; the greatest fixpoint is the maximal bisimulation.
pub fn naive_maximal_bisimulation(g: &TripleGraph) -> Vec<Vec<bool>> {
    let n = g.node_count();
    let mut rel = vec![vec![false; n]; n];
    for a in g.nodes() {
        for b in g.nodes() {
            rel[a.index()][b.index()] = g.label(a) == g.label(b);
        }
    }
    loop {
        let mut changed = false;
        for a in g.nodes() {
            for b in g.nodes() {
                if !rel[a.index()][b.index()] {
                    continue;
                }
                if !simulates(g, &rel, a, b) || !simulates(g, &rel, b, a) {
                    rel[a.index()][b.index()] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            return rel;
        }
    }
}

/// Whether every out-pair of `a` is matched by some out-pair of `b`
/// under the current relation.
fn simulates(
    g: &TripleGraph,
    rel: &[Vec<bool>],
    a: NodeId,
    b: NodeId,
) -> bool {
    g.out(a).iter().all(|(p, o)| {
        g.out(b).iter().any(|(p2, o2)| {
            rel[p.index()][p2.index()] && rel[o.index()][o2.index()]
        })
    })
}

/// Whether two nodes are bisimilar, by the naive reference algorithm.
pub fn naive_bisimilar(g: &TripleGraph, a: NodeId, b: NodeId) -> bool {
    naive_maximal_bisimulation(g)[a.index()][b.index()]
}

/// Check that a partition induces exactly the given relation (used to
/// validate Proposition 1: `Align(λ_Bisim) = Bisim(G)` — here on the full
/// node set rather than the bipartite restriction).
pub fn partition_matches_relation(
    partition: &Partition,
    rel: &[Vec<bool>],
) -> bool {
    let n = partition.len();
    assert_eq!(rel.len(), n, "relation matrix must cover every node");
    for (a, row) in rel.iter().enumerate() {
        assert_eq!(row.len(), n, "relation matrix must be square");
        for (b, &related) in row.iter().enumerate() {
            let same =
                partition.color(NodeId(a as u32)) == partition.color(NodeId(b as u32));
            if same != related {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::bisimulation_partition;
    use rdf_model::{GraphBuilder, LabelId, Vocab};

    fn diamond() -> TripleGraph {
        // Two bisimilar blanks pointing at the same literal.
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let x = b.add_node(LabelId::BLANK, &v);
        let y = b.add_node(LabelId::BLANK, &v);
        let p = b.add_node(v.uri("p"), &v);
        let l = b.add_node(v.literal("a"), &v);
        b.add_triple(x, p, l);
        b.add_triple(y, p, l);
        b.freeze()
    }

    #[test]
    fn reflexive() {
        let g = diamond();
        let rel = naive_maximal_bisimulation(&g);
        for n in g.nodes() {
            assert!(rel[n.index()][n.index()]);
        }
    }

    #[test]
    fn symmetric() {
        let g = diamond();
        let rel = naive_maximal_bisimulation(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(rel[a.index()][b.index()], rel[b.index()][a.index()]);
            }
        }
    }

    #[test]
    fn diamond_blanks_bisimilar() {
        let g = diamond();
        assert!(naive_bisimilar(&g, NodeId(0), NodeId(1)));
        assert!(!naive_bisimilar(&g, NodeId(0), NodeId(2)));
    }

    #[test]
    fn proposition_1_on_small_graphs() {
        // The refinement engine must agree with the naive reference.
        let g = diamond();
        let rel = naive_maximal_bisimulation(&g);
        let out = bisimulation_partition(&g);
        assert!(partition_matches_relation(&out.partition, &rel));
    }

    #[test]
    fn proposition_1_with_cycles() {
        // Symmetric 2-cycle plus an asymmetric appendix.
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let x = b.add_node(LabelId::BLANK, &v);
        let y = b.add_node(LabelId::BLANK, &v);
        let z = b.add_node(LabelId::BLANK, &v);
        let p = b.add_node(v.uri("p"), &v);
        let q = b.add_node(v.uri("q"), &v);
        b.add_triple(x, p, y);
        b.add_triple(y, p, x);
        b.add_triple(z, p, x);
        b.add_triple(z, q, y);
        let g = b.freeze();
        let rel = naive_maximal_bisimulation(&g);
        let out = bisimulation_partition(&g);
        assert!(partition_matches_relation(&out.partition, &rel));
        assert!(rel[x.index()][y.index()], "x ~ y on symmetric cycle");
        assert!(!rel[z.index()][x.index()], "z has extra q edge");
    }
}
