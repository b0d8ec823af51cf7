//! The edit-distance node metric `σ_Edit` (§4.2) — the expensive
//! reference method that the overlap alignment approximates.
//!
//! `σ_Edit` refines a base (hybrid) alignment:
//! * pairs aligned by the base partition have distance 0;
//! * pairs of *unaligned literals* get the normalised string edit
//!   distance of their labels;
//! * pairs of *unaligned non-literals* get a graph-edit-style distance:
//!   the optimal (Hungarian) matching among their outgoing edges, where a
//!   matched pair of edges costs `σ(p1,p2) ⊕ σ(o1,o2)`, the whole matching
//!   is averaged over `f = max(|out(n)|, |out(m)|)` and `R` unmatched
//!   edges contribute `R / f` — iterated to a fixpoint so distances
//!   propagate through the graph;
//! * every other pair (one node aligned, or mixed literal/non-literal)
//!   has distance 1.
//!
//! The matrix is quadratic in the number of unaligned nodes and each
//! iteration runs the Hungarian algorithm per pair: use on small inputs
//! only, exactly as the paper does.

use crate::algebra::oplus;
use crate::hungarian::hungarian_rect;
use crate::levenshtein::normalized_levenshtein;
use rdf_model::{CombinedGraph, FxHashMap, NodeId, Vocab};

/// Convergence parameters for the `σ_Edit` fixpoint.
#[derive(Debug, Clone, Copy)]
pub struct SigmaEditConfig {
    /// Stop when no entry moves by more than this between iterations.
    pub epsilon: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for SigmaEditConfig {
    fn default() -> Self {
        SigmaEditConfig {
            epsilon: 1e-9,
            max_iterations: 64,
        }
    }
}

/// The computed `σ_Edit` distance table.
#[derive(Debug, Clone)]
pub struct SigmaEdit {
    /// Unaligned source nodes (combined-graph ids), row index order.
    pub unaligned_source: Vec<NodeId>,
    /// Unaligned target nodes (combined-graph ids), column index order.
    pub unaligned_target: Vec<NodeId>,
    row_of: FxHashMap<NodeId, usize>,
    col_of: FxHashMap<NodeId, usize>,
    /// Base-partition colors per combined-graph node.
    base_colors: Vec<u32>,
    /// Row-major matrix of distances between unaligned pairs.
    matrix: Vec<f64>,
    /// Iterations executed until convergence.
    pub iterations: usize,
}

impl SigmaEdit {
    /// Compute `σ_Edit` over a combined graph, refining the base
    /// partition given as one color per combined-graph node (typically
    /// the hybrid partition).
    pub fn compute(
        combined: &CombinedGraph,
        vocab: &Vocab,
        base_colors: &[u32],
        config: SigmaEditConfig,
    ) -> Self {
        let g = combined.graph();
        assert_eq!(base_colors.len(), g.node_count());

        // Side occupancy per color to find unaligned nodes.
        let num_colors = base_colors.iter().copied().max().map_or(0, |c| c + 1);
        let mut src = vec![0u32; num_colors as usize];
        let mut tgt = vec![0u32; num_colors as usize];
        for n in g.nodes() {
            match combined.side(n) {
                rdf_model::Side::Source => src[base_colors[n.index()] as usize] += 1,
                rdf_model::Side::Target => tgt[base_colors[n.index()] as usize] += 1,
            }
        }
        let unaligned_source: Vec<NodeId> = combined
            .source_nodes()
            .filter(|n| tgt[base_colors[n.index()] as usize] == 0)
            .collect();
        let unaligned_target: Vec<NodeId> = combined
            .target_nodes()
            .filter(|n| src[base_colors[n.index()] as usize] == 0)
            .collect();

        let row_of: FxHashMap<NodeId, usize> = unaligned_source
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        let col_of: FxHashMap<NodeId, usize> = unaligned_target
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();

        let rows = unaligned_source.len();
        let cols = unaligned_target.len();
        let mut matrix = vec![0.0f64; rows * cols];

        // Literal × literal: string edit distance; mixed kinds: 1.
        // Non-literal pairs start optimistic at 0 and only grow, which
        // guarantees monotone convergence.
        for (i, &n) in unaligned_source.iter().enumerate() {
            for (j, &m) in unaligned_target.iter().enumerate() {
                let v = match (g.is_literal(n), g.is_literal(m)) {
                    (true, true) => normalized_levenshtein(
                        vocab.text(g.label(n)),
                        vocab.text(g.label(m)),
                    ),
                    (true, false) | (false, true) => 1.0,
                    (false, false) => 0.0,
                };
                matrix[i * cols + j] = v;
            }
        }

        let mut this = SigmaEdit {
            unaligned_source,
            unaligned_target,
            row_of,
            col_of,
            base_colors: base_colors.to_vec(),
            matrix,
            iterations: 0,
        };

        // Fixpoint iteration on the non-literal × non-literal block.
        let nl_rows: Vec<usize> = (0..rows)
            .filter(|&i| !g.is_literal(this.unaligned_source[i]))
            .collect();
        let nl_cols: Vec<usize> = (0..cols)
            .filter(|&j| !g.is_literal(this.unaligned_target[j]))
            .collect();
        for iter in 0..config.max_iterations {
            let mut delta: f64 = 0.0;
            let mut next = this.matrix.clone();
            for &i in &nl_rows {
                let n = this.unaligned_source[i];
                for &j in &nl_cols {
                    let m = this.unaligned_target[j];
                    let v = this.structural_distance(combined, n, m);
                    let idx = i * cols + j;
                    delta = delta.max((v - this.matrix[idx]).abs());
                    next[idx] = v;
                }
            }
            this.matrix = next;
            this.iterations = iter + 1;
            if delta < config.epsilon {
                break;
            }
        }
        this
    }

    /// Distance between two unaligned non-literal nodes: optimal matching
    /// of out-edges (Hungarian), `min(1, (match_cost + R) / f)`.
    fn structural_distance(
        &self,
        combined: &CombinedGraph,
        n: NodeId,
        m: NodeId,
    ) -> f64 {
        let g = combined.graph();
        let out_n = g.out(n);
        let out_m = g.out(m);
        let (k1, k2) = (out_n.len(), out_m.len());
        let f = k1.max(k2);
        if f == 0 {
            return 0.0; // both contentless: structurally identical
        }
        if k1 == 0 || k2 == 0 {
            return 1.0; // all edges unmatched: R / f = 1
        }
        let cost: Vec<Vec<f64>> = out_n
            .iter()
            .map(|(p1, o1)| {
                out_m
                    .iter()
                    .map(|(p2, o2)| {
                        oplus(self.distance(p1, p2), self.distance(o1, o2))
                    })
                    .collect()
            })
            .collect();
        let (_, match_cost) = hungarian_rect(&cost);
        let r = (k1.max(k2) - k1.min(k2)) as f64;
        ((match_cost + r) / f as f64).min(1.0)
    }

    /// `σ_Edit(n, m)` for combined-graph node ids (`n` source side, `m`
    /// target side).
    pub fn distance(&self, n: NodeId, m: NodeId) -> f64 {
        if self.base_colors[n.index()] == self.base_colors[m.index()] {
            return 0.0;
        }
        match (self.row_of.get(&n), self.col_of.get(&m)) {
            (Some(&i), Some(&j)) => {
                self.matrix[i * self.unaligned_target.len() + j]
            }
            _ => 1.0,
        }
    }

    /// `Align_θ(σ_Edit)`: unaligned pairs within the threshold, plus all
    /// base-aligned pairs implicitly (distance 0). Returns only the
    /// newly-identified unaligned pairs with their distances.
    pub fn align_threshold(&self, theta: f64) -> Vec<(NodeId, NodeId, f64)> {
        let cols = self.unaligned_target.len();
        let mut out = Vec::new();
        for (i, &n) in self.unaligned_source.iter().enumerate() {
            for (j, &m) in self.unaligned_target.iter().enumerate() {
                let d = self.matrix[i * cols + j];
                if d <= theta {
                    out.push((n, m, d));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{RdfGraphBuilder, Vocab};

    /// The graphs of Figure 7, reconstructed from Example 5's stated
    /// distances:
    /// G1: w -r-> u, w -q-> v, u -p-> "a"|"b"|"c", v -p-> "c",
    ///     v -q-> "abc"
    /// G2: w' -r-> u', w' -q-> v', u' -p-> "a"|"c", v' -p-> "c",
    ///     v' -q-> "ac"
    fn figure7() -> (Vocab, CombinedGraph) {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uuu("w", "r", "u");
            b.uuu("w", "q", "v");
            b.uul("u", "p", "a");
            b.uul("u", "p", "b");
            b.uul("u", "p", "c");
            b.uul("v", "p", "c");
            b.uul("v", "q", "abc");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uuu("w2", "r", "u2");
            b.uuu("w2", "q", "v2");
            b.uul("u2", "p", "a");
            b.uul("u2", "p", "c");
            b.uul("v2", "p", "c");
            b.uul("v2", "q", "ac");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        (v, c)
    }

    fn hybrid_colors(c: &CombinedGraph) -> Vec<u32> {
        // Reuse the label-equality trivial partition as the base here:
        // the unaligned sets coincide with Hybrid for this example
        // because the renamed URIs w/u/v have no shared structure that
        // hybrid could exploit beyond what the test verifies.
        let g = c.graph();
        let mut colors = Vec::with_capacity(g.node_count());
        for n in g.nodes() {
            colors.push(g.label(n).0);
        }
        colors
    }

    fn node_by_label(
        v: &Vocab,
        c: &CombinedGraph,
        text: &str,
    ) -> NodeId {
        c.graph()
            .nodes()
            .find(|&n| v.text(c.graph().label(n)) == text)
            .unwrap_or_else(|| panic!("no node {text}"))
    }

    #[test]
    fn example5_distances() {
        let (v, c) = figure7();
        let colors = hybrid_colors(&c);
        let s = SigmaEdit::compute(&c, &v, &colors, SigmaEditConfig::default());

        let abc = node_by_label(&v, &c, "abc");
        let ac = node_by_label(&v, &c, "ac");
        let u = node_by_label(&v, &c, "u");
        let u2 = node_by_label(&v, &c, "u2");
        let vv = node_by_label(&v, &c, "v");
        let v2 = node_by_label(&v, &c, "v2");
        let w = node_by_label(&v, &c, "w");
        let w2 = node_by_label(&v, &c, "w2");

        // String edit distance between "abc" and "ac" is 1/3.
        assert!((s.distance(abc, ac) - 1.0 / 3.0).abs() < 1e-9);
        // σEdit(u, u') = 1/3 (one unmatched edge out of 3).
        assert!((s.distance(u, u2) - 1.0 / 3.0).abs() < 1e-9, "{}", s.distance(u, u2));
        // σEdit(v, v') = 1/6 (average of 0 and 1/3 over 2 edges).
        assert!((s.distance(vv, v2) - 1.0 / 6.0).abs() < 1e-9, "{}", s.distance(vv, v2));
        // σEdit(w, w') = 1/4 (average of 1/3 and 1/6 over 2 edges).
        assert!((s.distance(w, w2) - 0.25).abs() < 1e-9, "{}", s.distance(w, w2));
    }

    #[test]
    fn aligned_pairs_are_zero_and_mixed_pairs_one() {
        let (v, c) = figure7();
        let colors = hybrid_colors(&c);
        let s = SigmaEdit::compute(&c, &v, &colors, SigmaEditConfig::default());
        // "c" is trivially aligned to itself: distance 0 across sides.
        let c_lit = node_by_label(&v, &c, "c");
        assert_eq!(s.distance(c_lit, c_lit), 0.0);
        // "a" aligned vs "ac" unaligned: distance 1 (Example 5 notes the
        // normalised edit distance 1/2 is NOT used for aligned nodes).
        let a = node_by_label(&v, &c, "a");
        let ac = node_by_label(&v, &c, "ac");
        assert_eq!(s.distance(a, ac), 1.0);
    }

    #[test]
    fn threshold_alignment_extracts_close_pairs() {
        let (v, c) = figure7();
        let colors = hybrid_colors(&c);
        let s = SigmaEdit::compute(&c, &v, &colors, SigmaEditConfig::default());
        let pairs = s.align_threshold(0.35);
        // u~u2 (1/3), v~v2 (1/6), w~w2 (1/4), abc~ac (1/3) all within.
        assert_eq!(pairs.len(), 4);
        let pairs_high = s.align_threshold(0.2);
        // Only v~v2 (1/6) within 0.2.
        assert_eq!(pairs_high.len(), 1);
    }

    #[test]
    fn contentless_unaligned_nodes_at_distance_zero() {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uuu("x", "p", "dead-end1");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uuu("x", "p", "dead-end2");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let colors: Vec<u32> =
            c.graph().nodes().map(|n| c.graph().label(n).0).collect();
        let s = SigmaEdit::compute(&c, &v, &colors, SigmaEditConfig::default());
        let d1 = node_by_label(&v, &c, "dead-end1");
        let d2 = node_by_label(&v, &c, "dead-end2");
        assert_eq!(s.distance(d1, d2), 0.0);
    }

    #[test]
    fn monotone_iterations_converge() {
        let (v, c) = figure7();
        let colors = hybrid_colors(&c);
        let s = SigmaEdit::compute(&c, &v, &colors, SigmaEditConfig::default());
        assert!(s.iterations < 64, "converged before cap: {}", s.iterations);
    }
}
