//! Weighted propagation (§4.5).
//!
//! After enrichment introduces newly-aligned clusters with weights, the
//! information is propagated to the remaining unaligned nodes by a
//! weighted variant of the refinement procedure: colors refine exactly as
//! in §3.2, and weights follow
//!
//! ```text
//! reweight_ω(n) = ⊕ { (ω(p) ⊕ ω(o)) / |out(n)|  |  (p, o) ∈ out(n) }
//! ```
//!
//! (nodes without outgoing edges keep their weight). The combined
//! iteration `BisimRefine*_X(ξ)` stops when the partition reaches its
//! fixpoint *and* no weight moves by more than ε; weights start at 0 on
//! `X` and only increase, so the process stabilises.
//!
//! `Propagate(ξ) = BisimRefine*_{UN(ξ)}(Blank(ξ, UN(ξ)))` re-derives the
//! identity of all unaligned non-literal nodes from the enriched
//! alignment. `Propagate((λ_Trivial, 0)) = (λ_Hybrid, 0)` — the natural
//! relationship with §3.4 noted by the paper.

use crate::engine::RefineEngine;
use crate::refine::RefineOutcome;
use crate::methods::blank_out;
use crate::partition::unaligned_non_literals;
use crate::weighted::WeightedPartition;
use rdf_model::{CombinedGraph, NodeId, TripleGraph};
use rdf_edit::algebra::oplus;

/// Convergence parameters for weighted refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagateConfig {
    /// Weight stabilisation tolerance ε.
    pub epsilon: f64,
    /// Cap on extra weight-only rounds after the partition stabilises.
    pub max_weight_rounds: usize,
}

impl Default for PropagateConfig {
    fn default() -> Self {
        PropagateConfig {
            epsilon: 1e-9,
            max_weight_rounds: 64,
        }
    }
}

/// One weight update `reweight_ω` over the selected nodes; returns the
/// maximum change.
fn reweight_step(
    g: &TripleGraph,
    weights: &mut [f64],
    in_x: &[bool],
) -> f64 {
    let prev = weights.to_vec();
    let mut delta: f64 = 0.0;
    for n in g.nodes() {
        if !in_x[n.index()] {
            continue;
        }
        let out = g.out(n);
        if out.is_empty() {
            continue; // keeps its weight
        }
        let f = out.len() as f64;
        let mut acc = 0.0;
        for (p, o) in out {
            acc = oplus(acc, oplus(prev[p.index()], prev[o.index()]) / f);
            if acc >= 1.0 {
                break;
            }
        }
        delta = delta.max((acc - prev[n.index()]).abs());
        weights[n.index()] = acc;
    }
    delta
}

/// `BisimRefine*_X(ξ)` for weighted partitions: refine colors and weights
/// of the nodes in `X` until both stabilise, refining colors through a
/// caller-owned engine over the graph's grouped-CSR columns.
///
/// Color rounds read only colors and weight rounds read only weights,
/// so the interleaved loop of §4.5 decouples: the whole color fixpoint
/// runs as one engine invocation (on its thread configuration, with its
/// reused scratch, no per-round partition copies), then the same number
/// of weight rounds replay before the ε check starts — producing the
/// exact color and weight sequences of the interleaved formulation.
pub(crate) fn weighted_refine_fixpoint_with(
    g: &TripleGraph,
    xi: WeightedPartition,
    x: &[NodeId],
    config: PropagateConfig,
    engine: &mut RefineEngine,
) -> WeightedPartition {
    let mut in_x = vec![false; g.node_count()];
    for &n in x {
        in_x[n.index()] = true;
    }
    let WeightedPartition {
        partition,
        mut weights,
    } = xi;
    let RefineOutcome {
        partition,
        rounds: color_rounds,
    } = engine.refine_fixpoint_mask(g, partition, &in_x);
    let mut rounds = 0;
    let mut weight_rounds = 0;
    loop {
        let delta = reweight_step(g, &mut weights, &in_x);
        rounds += 1;
        // The interleaved loop only consults ε once the color partition
        // has stabilised (round `color_rounds` onwards).
        if rounds >= color_rounds {
            weight_rounds += 1;
            if delta < config.epsilon || weight_rounds >= config.max_weight_rounds
            {
                return WeightedPartition::new(partition, weights);
            }
        }
    }
}

/// `Blank(ξ, X)` for weighted partitions: reset colors of `X` to the
/// neutral blank class and their weights to 0.
pub fn blank_out_weighted(
    xi: &WeightedPartition,
    x: &[NodeId],
) -> WeightedPartition {
    let partition = blank_out(&xi.partition, x);
    let mut weights = xi.weights.clone();
    for &n in x {
        weights[n.index()] = 0.0;
    }
    WeightedPartition::new(partition, weights)
}

/// `Propagate(ξ)` (§4.5): blank out the unaligned non-literal nodes and
/// re-derive their colors and weights by weighted refinement.
pub fn propagate(
    combined: &CombinedGraph,
    xi: &WeightedPartition,
    config: PropagateConfig,
) -> WeightedPartition {
    propagate_with(combined, xi, config, &mut RefineEngine::auto())
}

/// As [`propagate`], through a caller-owned engine (the overlap rounds
/// loop reuses one across its rounds).
pub(crate) fn propagate_with(
    combined: &CombinedGraph,
    xi: &WeightedPartition,
    config: PropagateConfig,
    engine: &mut RefineEngine,
) -> WeightedPartition {
    let un = unaligned_non_literals(&xi.partition, combined);
    let blanked = blank_out_weighted(xi, &un);
    weighted_refine_fixpoint_with(
        combined.graph(),
        blanked,
        &un,
        config,
        engine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{hybrid_partition, trivial_partition};
    use rdf_model::{RdfGraphBuilder, Vocab};

    fn renamed_pair() -> CombinedGraph {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("ed-uni", "name", "University of Edinburgh");
            b.uul("ed-uni", "city", "Edinburgh");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("uoe", "name", "University of Edinburgh");
            b.uul("uoe", "city", "Edinburgh");
            b.finish()
        };
        CombinedGraph::union(&v, &g1, &g2)
    }

    #[test]
    fn propagate_of_trivial_equals_hybrid() {
        // Propagate((λTrivial, 0)) = (λHybrid, 0) — §4.5.
        let c = renamed_pair();
        let xi = WeightedPartition::zero(trivial_partition(&c));
        let out = propagate(&c, &xi, PropagateConfig::default());
        let hybrid = hybrid_partition(&c).partition;
        assert!(out.partition.equivalent(&hybrid));
        assert!(out.weights.iter().all(|&w| w == 0.0));
    }

    #[test]
    fn weights_propagate_from_enriched_neighbours() {
        // Give the shared literal cluster a nonzero weight on one side
        // and check the unaligned URIs absorb a fraction of it.
        let c = renamed_pair();
        let p = trivial_partition(&c);
        let mut weights = vec![0.0; p.len()];
        // Node 2 is the literal "University of Edinburgh" on the source.
        assert!(c.graph().is_literal(rdf_model::NodeId(2)));
        weights[2] = 0.4;
        let xi = WeightedPartition::new(p, weights);
        let out = propagate(&c, &xi, PropagateConfig::default());
        // ed-uni (source node 0) has out-degree 2; one of its objects
        // carries weight 0.4 → reweight = 0.4 / 2 = 0.2.
        assert!((out.weight(rdf_model::NodeId(0)) - 0.2).abs() < 1e-9);
        // The blanked URI uoe absorbed symmetric information (its literal
        // weight is 0): 0 / 2 = 0.
        let uoe = c.from_target(rdf_model::NodeId(0));
        assert!(out.weight(uoe) < 0.2);
    }

    #[test]
    fn reweight_keeps_weight_of_sinks() {
        let c = renamed_pair();
        let g = c.graph();
        let mut weights = vec![0.5; g.node_count()];
        let in_x = vec![true; g.node_count()];
        reweight_step(g, &mut weights, &in_x);
        // Literal nodes have no out-edges: weight unchanged.
        for n in g.nodes() {
            if g.out_degree(n) == 0 {
                assert_eq!(weights[n.index()], 0.5);
            }
        }
    }

    #[test]
    fn weighted_refine_terminates_on_cycles() {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uuu("x", "p", "y");
            b.uuu("y", "p", "x");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uuu("x2", "p", "y2");
            b.uuu("y2", "p", "x2");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let xi = WeightedPartition::zero(trivial_partition(&c));
        let out = propagate(&c, &xi, PropagateConfig::default());
        // x/y align with x2/y2 modulo blanking (symmetric cycle).
        assert_eq!(out.partition.len(), c.graph().node_count());
    }
}
