//! Weighted partitions (§4.3).
//!
//! A weighted partition `ξ = (λ, ω)` pairs a partition with a weight
//! function `ω : N_G → [0, 1]` measuring each node's distance from the
//! "center" of its cluster. It induces the distance (equation 5)
//!
//! ```text
//! σ_ξ(n, m) = ω(n) ⊕ ω(m)   if λ(n) = λ(m)
//!             1              otherwise
//! ```
//!
//! and the alignment `Align_θ(ξ) = {(n, m) | λ(n) = λ(m), ω(n) ⊕ ω(m) < θ}`.

use crate::partition::{ColorId, Partition, SideCounts};
use rdf_model::{CombinedGraph, NodeId};
use rdf_edit::algebra::oplus;

/// A weighted partition `ξ = (λ, ω)`.
#[derive(Debug, Clone)]
pub struct WeightedPartition {
    /// The underlying partition `λ`.
    pub partition: Partition,
    /// Per-node weights `ω ∈ [0, 1]`, or none for the constant-zero
    /// function, which every partition-only method carries.
    weights: Vec<f64>,
}

impl WeightedPartition {
    /// Wrap a partition with the constant-zero weight function (the
    /// starting point `ξ₀ = (λ_Hybrid, 0)` of Algorithm 2).
    pub fn zero(partition: Partition) -> Self {
        WeightedPartition {
            partition,
            weights: Vec::new(),
        }
    }

    /// Wrap a partition with explicit weights.
    pub fn new(partition: Partition, weights: Vec<f64>) -> Self {
        assert_eq!(partition.len(), weights.len());
        debug_assert!(weights
            .iter()
            .all(|w| (0.0..=1.0 + 1e-12).contains(w)));
        WeightedPartition { partition, weights }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.partition.len()
    }

    /// Whether the weighted partition covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.partition.is_empty()
    }

    /// The color of a node.
    #[inline]
    pub fn color(&self, n: NodeId) -> ColorId {
        self.partition.color(n)
    }

    /// The weight of a node.
    #[inline]
    pub fn weight(&self, n: NodeId) -> f64 {
        if self.weights.is_empty() {
            0.0
        } else {
            self.weights[n.index()]
        }
    }

    /// Every node's weight, in node order.
    pub fn weights(&self) -> Vec<f64> {
        let mut weights = self.weights.clone();
        weights.resize(self.len(), 0.0);
        weights
    }

    /// The partition and every node's weight, in node order.
    pub fn into_parts(self) -> (Partition, Vec<f64>) {
        let mut weights = self.weights;
        weights.resize(self.partition.len(), 0.0);
        (self.partition, weights)
    }

    /// The induced distance `σ_ξ` (equation 5).
    pub fn distance(&self, n: NodeId, m: NodeId) -> f64 {
        if self.partition.same_class(n, m) {
            oplus(self.weight(n), self.weight(m))
        } else {
            1.0
        }
    }

    /// `Align_θ(ξ)`: cross-side pairs in the same cluster whose combined
    /// weight is below the threshold. Materialises pairs in
    /// combined-graph ids; intended for inspection and tests.
    pub fn align_threshold(
        &self,
        combined: &CombinedGraph,
        theta: f64,
    ) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = Vec::new();
        SideCounts::new(&self.partition, combined).for_each_pair(
            &self.partition,
            combined,
            |s, t| {
                let d = oplus(self.weight(s), self.weight(t));
                if d < theta {
                    out.push((s, t, d));
                }
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::trivial_partition;
    use rdf_model::{RdfGraphBuilder, Vocab};

    fn combined() -> CombinedGraph {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.finish()
        };
        CombinedGraph::union(&v, &g1, &g2)
    }

    #[test]
    fn zero_weights() {
        let c = combined();
        let w = WeightedPartition::zero(trivial_partition(&c));
        assert!(w.weights().iter().all(|&x| x == 0.0));
        assert_eq!(w.len(), 6);
        assert!(!w.is_empty());
    }

    #[test]
    fn distance_same_cluster_is_weight_sum() {
        let c = combined();
        let p = trivial_partition(&c);
        let mut weights = vec![0.0; p.len()];
        weights[0] = 0.2; // source x
        weights[3] = 0.25; // target x
        let w = WeightedPartition::new(p, weights);
        let x_src = NodeId(0);
        let x_tgt = NodeId(3);
        assert!((w.distance(x_src, x_tgt) - 0.45).abs() < 1e-12);
        // Different clusters: 1.
        assert_eq!(w.distance(NodeId(0), NodeId(4)), 1.0);
    }

    #[test]
    fn align_threshold_filters_by_weight() {
        let c = combined();
        let p = trivial_partition(&c);
        let mut weights = vec![0.0; p.len()];
        weights[0] = 0.4;
        weights[3] = 0.4;
        let w = WeightedPartition::new(p, weights);
        // x-pair has distance 0.8; p-pair and a-pair 0.0.
        let strict = w.align_threshold(&c, 0.5);
        assert_eq!(strict.len(), 2);
        let loose = w.align_threshold(&c, 0.9);
        assert_eq!(loose.len(), 3);
    }

    #[test]
    fn example6_distances() {
        // Example 6: nodes "abc" (ω=2/9) and "ac" (ω=1/9) in one cluster
        // have σ_ξ = 1/3; w (2/9) and w' (1/36) give 1/4.
        let raw: Vec<u32> = vec![0, 1, 2, 0, 1, 2];
        let p = Partition::from_colors(&raw);
        let w = WeightedPartition::new(
            p,
            vec![2.0 / 9.0, 0.0, 0.0, 1.0 / 9.0, 0.0, 0.0],
        );
        assert!((w.distance(NodeId(0), NodeId(3)) - 1.0 / 3.0).abs() < 1e-12);
    }
}
