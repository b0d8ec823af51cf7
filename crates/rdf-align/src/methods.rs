//! The three partition-based alignment methods of §3:
//! Trivial (§3.1), Deblank (§3.3) and Hybrid (§3.4).
//!
//! All operate on the combined graph `G = G1 ⊎ G2` and satisfy the
//! hierarchy `Align(λ_Trivial) ⊆ Align(λ_Deblank) ⊆ Align(λ_Hybrid)`.

use crate::engine::RefineEngine;
use crate::partition::{
    unaligned_non_literals, ColorId, DenseIds, Partition, SideCounts,
};
use crate::refine::{label_partition, verify_stable, RefineOutcome, Unstable};
use rdf_model::{CombinedGraph, NodeId, TripleGraph};

/// `λ_Trivial` (§3.1): label equality on non-blank nodes; every blank node
/// is its own class.
pub fn trivial_partition(combined: &CombinedGraph) -> Partition {
    let g = combined.graph();
    let labels = g.labels_raw();
    let mut ids = DenseIds::default();
    ids.reset(labels.iter().map(|l| l.0 as usize + 1).max().unwrap_or(0));
    // Non-blank nodes are keyed by label id; a blank is its own class,
    // so it takes the next id directly.
    let colors = g
        .nodes()
        .zip(labels)
        .map(|(n, l)| {
            ColorId(if g.is_blank(n) { ids.fresh() } else { ids.id(l.0) })
        })
        .collect();
    Partition::from_dense(colors, ids.count())
}

/// `λ_Deblank = BisimRefine*_{Blanks(G)}(ℓ_G)` (§3.3): bisimulation
/// refinement restricted to blank nodes, starting from the node-labelling
/// partition.
pub fn deblank_partition(combined: &CombinedGraph) -> RefineOutcome {
    deblank_partition_with(combined, &mut RefineEngine::auto())
}

/// As [`deblank_partition`], refining through a caller-owned engine so
/// scratch is reused across pipeline stages and the thread
/// configuration is explicit.
pub fn deblank_partition_with(
    combined: &CombinedGraph,
    engine: &mut RefineEngine,
) -> RefineOutcome {
    let g = combined.graph();
    engine.refine_fixpoint_mask(g, label_partition(g), &blank_mask(g))
}

/// Deblank's `X`: a mask of the blank nodes.
fn blank_mask(g: &TripleGraph) -> Vec<bool> {
    g.nodes().map(|n| g.is_blank(n)).collect()
}

/// The mask of `X` over `n` nodes, for a list of its members.
pub(crate) fn mask_of(n: usize, x: &[NodeId]) -> Vec<bool> {
    let mut in_x = vec![false; n];
    for &m in x {
        in_x[m.index()] = true;
    }
    in_x
}

/// Certify that `partition` is the fixpoint Deblank reaches (Definition
/// 4 with `X` the blank nodes), by [`verify_stable`]: what
/// `rdf align --method deblank --verify` checks.
pub fn verify_deblank(
    combined: &CombinedGraph,
    partition: &Partition,
) -> Result<(), Unstable> {
    let g = combined.graph();
    verify_stable(partition, &g.out_columns(), &blank_mask(g))
}

/// `Blank(λ, X)` (equation 3): reset the color of the nodes in `X` to the
/// neutral blank color (a single fresh class).
///
/// One pass in node order numbers the classes by first occurrence, the
/// blanked class where its first member falls.
pub fn blank_out(partition: &Partition, x: &[NodeId]) -> Partition {
    let fresh = partition.num_colors();
    let in_x = mask_of(partition.len(), x);
    let mut ids = DenseIds::default();
    // Keys are colors plus the one fresh color: dense.
    ids.reset(fresh as usize + 1);
    let colors = partition
        .colors()
        .iter()
        .zip(&in_x)
        .map(|(c, &x)| ColorId(ids.id(if x { fresh } else { c.0 })))
        .collect();
    Partition::from_dense(colors, ids.count())
}

/// Outcome of the hybrid alignment, with intermediate stages exposed for
/// inspection.
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    /// The deblank partition the method starts from.
    pub deblank: Partition,
    /// The unaligned non-literal nodes `UN(λ_Deblank)` that were blanked
    /// and refined.
    pub unaligned: Vec<NodeId>,
    /// The final hybrid partition.
    pub partition: Partition,
    /// Refinement rounds spent in the hybrid stage.
    pub rounds: usize,
}

impl HybridOutcome {
    /// Certify both fixpoints of the hybrid run by [`verify_stable`]:
    /// the stage it started from over the blank nodes (Deblank's `X`),
    /// and its own partition over `UN(λ_Deblank)`. What
    /// `rdf align --method hybrid --verify` checks.
    pub fn verify(&self, combined: &CombinedGraph) -> Result<(), Unstable> {
        verify_deblank(combined, &self.deblank)?;
        let g = combined.graph();
        let in_x = mask_of(g.node_count(), &self.unaligned);
        verify_stable(&self.partition, &g.out_columns(), &in_x)
    }
}

/// `λ_Hybrid` (§3.4): blank out `UN(λ_Deblank)` (unaligned non-literal
/// nodes) and refine exactly those nodes by bisimulation.
pub fn hybrid_partition(combined: &CombinedGraph) -> HybridOutcome {
    hybrid_partition_with(combined, &mut RefineEngine::auto())
}

/// As [`hybrid_partition`], refining through a caller-owned engine
/// (both the deblank stage and the hybrid stage reuse its scratch).
pub fn hybrid_partition_with(
    combined: &CombinedGraph,
    engine: &mut RefineEngine,
) -> HybridOutcome {
    let deblank = deblank_partition_with(combined, engine).partition;
    hybrid_from_with(combined, deblank, engine)
}

/// Hybrid construction from a given base partition (the paper notes that
/// starting from `λ_Trivial` yields the same result as `λ_Deblank`).
pub fn hybrid_from(
    combined: &CombinedGraph,
    base: Partition,
) -> HybridOutcome {
    hybrid_from_with(combined, base, &mut RefineEngine::auto())
}

/// As [`hybrid_from`], refining through a caller-owned engine.
pub fn hybrid_from_with(
    combined: &CombinedGraph,
    base: Partition,
    engine: &mut RefineEngine,
) -> HybridOutcome {
    let unaligned = unaligned_non_literals(&base, combined);
    let blanked = blank_out(&base, &unaligned);
    let in_x = mask_of(combined.graph().node_count(), &unaligned);
    let out = engine.refine_fixpoint_mask(combined.graph(), blanked, &in_x);
    HybridOutcome {
        deblank: base,
        unaligned,
        partition: out.partition,
        rounds: out.rounds,
    }
}

/// Check the containment `Align(λ_a) ⊆ Align(λ_b)` over a combined graph:
/// every cross-side pair identified by `a` is also identified by `b`.
pub fn alignment_subset(
    a: &Partition,
    b: &Partition,
    combined: &CombinedGraph,
) -> bool {
    // An a-class induces cross pairs only when both sides are present,
    // and then all its members must share one b-color.
    let counts = SideCounts::new(a, combined);
    let mut b_color: Vec<Option<ColorId>> =
        vec![None; a.num_colors() as usize];
    for n in combined.graph().nodes() {
        let ac = a.color(n);
        if !counts.is_aligned(ac) {
            continue;
        }
        match b_color[ac.index()] {
            None => b_color[ac.index()] = Some(b.color(n)),
            Some(c) => {
                if c != b.color(n) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{RdfGraphBuilder, Vocab};

    /// The two versions of Figure 3 (reconstructed to exhibit the
    /// properties stated in Examples 3 and 4).
    ///
    /// G1: w -p-> b1, w -p-> u, b1 -q-> u, b1 -q-> "a", b1 -r-> b2,
    ///     b2 -q-> "b", b3 -q-> "b", u -r-> b3, u -q-> "a"
    ///     (b2 ~ b3 bisimilar; b1's contents mention the URI u)
    /// G2: same shape with u renamed to v, b2/b3 merged into b4, and
    ///     b1 renamed (as a local identifier only) to b5.
    fn figure3() -> (Vocab, CombinedGraph) {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uub("w", "p", "b1");
            b.uuu("w", "p", "u");
            b.buu("b1", "q", "u");
            b.bul("b1", "q", "a");
            b.bub("b1", "r", "b2");
            b.bul("b2", "q", "b");
            b.bul("b3", "q", "b");
            b.uub("u", "r", "b3");
            b.uul("u", "q", "a");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uub("w", "p", "b5");
            b.uuu("w", "p", "v");
            b.buu("b5", "q", "v");
            b.bul("b5", "q", "a");
            b.bub("b5", "r", "b4");
            b.bul("b4", "q", "b");
            b.uub("v", "r", "b4");
            b.uul("v", "q", "a");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        (v, c)
    }

    /// Node ids in the combined Figure 3 graph, resolved by label text.
    fn find_uri(v: &Vocab, c: &CombinedGraph, text: &str) -> Vec<NodeId> {
        c.graph()
            .nodes()
            .filter(|&n| {
                c.graph().is_uri(n) && v.text(c.graph().label(n)) == text
            })
            .collect()
    }

    fn blank_by_name(g1_blanks: &[(&str, NodeId)], name: &str) -> NodeId {
        g1_blanks
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, id)| id)
            .unwrap_or_else(|| panic!("no blank {name}"))
    }

    /// Resolve the blanks of Figure 3 by their known positions.
    fn figure3_blanks(c: &CombinedGraph) -> Vec<(&'static str, NodeId)> {
        // Source blanks appear in creation order b1, b2, b3; target blanks
        // b5, b4 (b5 created before b4 in the builder above).
        let src: Vec<NodeId> = c
            .source_nodes()
            .filter(|&n| c.graph().is_blank(n))
            .collect();
        let tgt: Vec<NodeId> = c
            .target_nodes()
            .filter(|&n| c.graph().is_blank(n))
            .collect();
        assert_eq!(src.len(), 3);
        assert_eq!(tgt.len(), 2);
        vec![
            ("b1", src[0]),
            ("b2", src[1]),
            ("b3", src[2]),
            ("b5", tgt[0]),
            ("b4", tgt[1]),
        ]
    }

    #[test]
    fn trivial_aligns_shared_uris_only() {
        let (v, c) = figure3();
        let p = trivial_partition(&c);
        let w = find_uri(&v, &c, "w");
        assert_eq!(w.len(), 2);
        assert!(p.same_class(w[0], w[1]));
        // u and v are different URIs: not aligned.
        let u = find_uri(&v, &c, "u");
        let vv = find_uri(&v, &c, "v");
        assert_eq!((u.len(), vv.len()), (1, 1));
        assert!(!p.same_class(u[0], vv[0]));
        // Blanks are singletons under Trivial.
        let blanks = figure3_blanks(&c);
        let b2 = blank_by_name(&blanks, "b2");
        let b3 = blank_by_name(&blanks, "b3");
        assert!(!p.same_class(b2, b3));
    }

    #[test]
    fn deblank_aligns_b2_b3_to_b4_but_not_b1_b5() {
        // Figure 5: b2 and b3 get the same color as b4; b1 and b5 differ
        // (their contents mention u vs v).
        let (_, c) = figure3();
        let out = deblank_partition(&c);
        let blanks = figure3_blanks(&c);
        let b1 = blank_by_name(&blanks, "b1");
        let b2 = blank_by_name(&blanks, "b2");
        let b3 = blank_by_name(&blanks, "b3");
        let b4 = blank_by_name(&blanks, "b4");
        let b5 = blank_by_name(&blanks, "b5");
        assert!(out.partition.same_class(b2, b4));
        assert!(out.partition.same_class(b3, b4));
        assert!(!out.partition.same_class(b1, b5));
    }

    #[test]
    fn hybrid_aligns_u_v_and_b1_b5() {
        // Figure 6: Hybrid aligns u with v and b1 with b5.
        let (v, c) = figure3();
        let out = hybrid_partition(&c);
        let u = find_uri(&v, &c, "u")[0];
        let vv = find_uri(&v, &c, "v")[0];
        assert!(out.partition.same_class(u, vv), "u ~ v under Hybrid");
        let blanks = figure3_blanks(&c);
        let b1 = blank_by_name(&blanks, "b1");
        let b5 = blank_by_name(&blanks, "b5");
        assert!(out.partition.same_class(b1, b5), "b1 ~ b5 under Hybrid");
    }

    #[test]
    fn hierarchy_trivial_deblank_hybrid() {
        let (_, c) = figure3();
        let t = trivial_partition(&c);
        let d = deblank_partition(&c).partition;
        let h = hybrid_partition(&c).partition;
        assert!(alignment_subset(&t, &d, &c));
        assert!(alignment_subset(&d, &h, &c));
        // And in this example the containments are proper: Deblank aligns
        // blanks Trivial does not; Hybrid aligns u/v.
        assert!(!alignment_subset(&d, &t, &c));
        assert!(!alignment_subset(&h, &d, &c));
    }

    #[test]
    fn hybrid_from_trivial_equals_hybrid_from_deblank() {
        // §3.4: "Using λTrivial instead of λDeblank above yields the same
        // result."
        let (_, c) = figure3();
        let via_deblank = hybrid_partition(&c).partition;
        let via_trivial = hybrid_from(&c, trivial_partition(&c)).partition;
        assert!(via_deblank.equivalent(&via_trivial));
    }

    #[test]
    fn blank_out_creates_single_fresh_class() {
        let (_, c) = figure3();
        let t = trivial_partition(&c);
        let x: Vec<NodeId> = c.graph().nodes().take(3).collect();
        let b = blank_out(&t, &x);
        assert!(b.same_class(x[0], x[1]));
        assert!(b.same_class(x[1], x[2]));
    }

    #[test]
    fn self_alignment_deblank_is_complete() {
        // Aligning a version with itself: every node aligned (Fig 10
        // diagonal = 1 for Deblank).
        let mut v = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uub("x", "p", "b1");
            b.bul("b1", "q", "lit");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g, &g);
        let out = deblank_partition(&c);
        let un = crate::partition::unaligned_nodes(&out.partition, &c);
        assert!(un.is_empty(), "self-alignment must be complete: {un:?}");
    }
}
