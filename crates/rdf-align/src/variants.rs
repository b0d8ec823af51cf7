//! The fix for the predicate-only error mode observed in §5.1: "a
//! better solution would identify URIs that are predominantly used as
//! predicates and use a different refinement process".
//!
//! Outbound-only refinement gives every predicate-only URI the same
//! (empty) content, so they collapse into one class.
//! [`match_predicates_by_usage`] pairs them across the two versions by
//! the overlap of their usage instead, and [`PredicateMatching::apply`]
//! splits the collapsed class accordingly.

use crate::partition::Partition;
use rdf_model::{FxHashSet, NodeId};

/// Result of usage-based predicate matching: which predicates were in
/// ambiguous classes, and how they pair up across the sides.
#[derive(Debug, Clone, Default)]
pub struct PredicateMatching {
    /// Predicates (either side) whose class was not already 1-1.
    pub ambiguous: Vec<NodeId>,
    /// Matched `(source, target, diff distance)` pairs.
    pub pairs: Vec<(NodeId, NodeId, f64)>,
}

impl PredicateMatching {
    /// Apply to a partition: every ambiguous predicate becomes a
    /// singleton class, then each matched pair shares a fresh class —
    /// *splitting* the contentless mega-class that outbound-only
    /// refinement produces (§5.1).
    pub fn apply(&self, partition: &Partition) -> Partition {
        // Kept colors stay below `num_colors` and every new class takes
        // an id at or above it, so plain colors are injective keys.
        let mut raw: Vec<u32> =
            partition.colors().iter().map(|c| c.0).collect();
        let mut next = partition.num_colors();
        for &p in &self.ambiguous {
            raw[p.index()] = next;
            next += 1;
        }
        for &(n, m, _) in &self.pairs {
            raw[n.index()] = next;
            raw[m.index()] = next;
            next += 1;
        }
        Partition::from_dense_keys(raw.iter().copied())
    }
}

/// Match unaligned predicate-only URIs across the two sides by the
/// *overlap* of their usage pairs `{(λ(s), λ(o))}`. Overlap rather than
/// exact usage equality, because on evolving data every inserted row
/// would break equality.
///
/// Returns the matching; apply it with [`PredicateMatching::apply`].
pub fn match_predicates_by_usage(
    combined: &rdf_model::CombinedGraph,
    partition: &Partition,
    theta: f64,
) -> PredicateMatching {
    use crate::overlap::overlap_match;
    use rdf_model::Side;

    let g = combined.graph();
    let counts = crate::partition::SideCounts::new(partition, combined);
    let predicates = crate::metrics::predicate_only_uris(combined);
    let mut a: Vec<NodeId> = Vec::new();
    let mut b: Vec<NodeId> = Vec::new();
    for &p in &predicates {
        // Only predicates whose class is ambiguous or unaligned need a
        // usage-based decision; 1-1 classes are already settled.
        if counts.is_one_to_one(partition.color(p)) {
            continue;
        }
        match combined.side(p) {
            Side::Source => a.push(p),
            Side::Target => b.push(p),
        }
    }
    let usage = |p: NodeId| -> Vec<u64> {
        let mut pairs: Vec<u64> = g
            .triples()
            .filter(|t| t.p == p)
            .map(|t| {
                ((partition.color(t.s).0 as u64) << 32)
                    | partition.color(t.o).0 as u64
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    };
    let char_a: Vec<Vec<u64>> = a.iter().map(|&p| usage(p)).collect();
    let char_b: Vec<Vec<u64>> = b.iter().map(|&p| usage(p)).collect();
    // Confirm with the same overlap measure (diff = 1 − overlap).
    let index_of_b: rdf_model::FxHashMap<NodeId, usize> =
        b.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let index_of_a: rdf_model::FxHashMap<NodeId, usize> =
        a.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let (h, _) = overlap_match(
        &a,
        &char_a,
        &b,
        &char_b,
        theta,
        |n, m| {
            let ca = &char_a[index_of_a[&n]];
            let cb = &char_b[index_of_b[&m]];
            crate::overlap::diff_sorted(ca, cb)
        },
    );
    // Keep only the best mutual match per node (predicates are few; a
    // greedy pass by ascending distance suffices).
    let mut edges = h.edges;
    edges.sort_by(|x, y| x.2.total_cmp(&y.2));
    let mut used_a: FxHashSet<NodeId> = FxHashSet::default();
    let mut used_b: FxHashSet<NodeId> = FxHashSet::default();
    edges.retain(|&(n, m, _)| {
        if used_a.contains(&n) || used_b.contains(&m) {
            false
        } else {
            used_a.insert(n);
            used_b.insert(m);
            true
        }
    });
    let mut ambiguous = a;
    ambiguous.extend_from_slice(&b);
    PredicateMatching {
        ambiguous,
        pairs: edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{CombinedGraph, RdfGraphBuilder, Vocab};

    /// Two versions where outbound content is identical for two distinct
    /// entities, and only the *context* (who points at them) separates
    /// them — the limit of outbound-only refinement that §6 names.
    fn context_case() -> (Vocab, CombinedGraph) {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            // Two sinks with no content, reachable from different places.
            b.uuu("a", "p", "old:sink1");
            b.uuu("b", "q", "old:sink2");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uuu("a", "p", "new:sink1");
            b.uuu("b", "q", "new:sink2");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        (v, c)
    }

    fn uri(v: &Vocab, c: &CombinedGraph, text: &str) -> NodeId {
        c.graph()
            .nodes()
            .find(|&n| {
                c.graph().is_uri(n) && v.text(c.graph().label(n)) == text
            })
            .unwrap()
    }

    #[test]
    fn outbound_only_hybrid_conflates_sinks() {
        // Plain hybrid cannot distinguish the two renamed sinks: both
        // have empty content.
        let (v, c) = context_case();
        let h = crate::methods::hybrid_partition(&c).partition;
        let s1 = uri(&v, &c, "old:sink1");
        let s2 = uri(&v, &c, "new:sink2");
        assert!(h.same_class(s1, s2), "outbound-only conflates sinks");
    }

    #[test]
    fn usage_matching_pairs_predicates_despite_churn() {
        // Predicates whose usage overlaps strongly but not exactly —
        // exact context coloring fails, usage matching succeeds.
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            for i in 0..6 {
                b.uul(&format!("e{i}"), "old:name", &format!("value {i}"));
            }
            b.uul("e0", "old:other", "something");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            for i in 0..5 {
                b.uul(&format!("e{i}"), "new:name", &format!("value {i}"));
            }
            b.uul("e9", "new:name", "value 9"); // one new usage
            b.uul("e0", "new:other", "something");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let h = crate::methods::hybrid_partition(&c).partition;
        let matching = match_predicates_by_usage(&c, &h, 0.5);
        let name_old = uri(&v, &c, "old:name");
        let name_new = uri(&v, &c, "new:name");
        let other_old = uri(&v, &c, "old:other");
        let other_new = uri(&v, &c, "new:other");
        assert!(
            matching
                .pairs
                .iter()
                .any(|&(n, m, _)| n == name_old && m == name_new),
            "usage matching must pair the name predicates: {matching:?}"
        );
        // Applying splits the predicate mega-class into 1-1 pairs.
        let refined = matching.apply(&h);
        assert!(refined.same_class(name_old, name_new));
        assert!(refined.same_class(other_old, other_new));
        assert!(!refined.same_class(name_old, other_new));
        // Non-predicate classes are untouched.
        for n in c.graph().nodes() {
            for m in c.graph().nodes() {
                if c.graph().is_literal(n) && h.same_class(n, m) {
                    assert!(refined.same_class(n, m));
                }
            }
        }
    }
}
