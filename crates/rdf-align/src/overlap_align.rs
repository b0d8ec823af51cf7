//! The overlap alignment — Algorithm 2 of §4.7.
//!
//! Starting from `ξ₀ = (λ_Hybrid, 0)`, the algorithm alternates:
//!
//! 1. match unaligned *literals* by word-set overlap confirmed with the
//!    normalised string edit distance `σ_Literals`;
//! 2. `Propagate(Enrich(ξ, H))` — fold the discovered pairs into the
//!    weighted partition and re-derive unaligned non-literal colors;
//! 3. match unaligned *non-literals* by the overlap of their outgoing
//!    edge colors `out-color_ξ(n) = {(λ(p), λ(o))}` confirmed with the
//!    matching-based distance `σ_ξ^NL`;
//!
//! until no new close pairs are found. Theorem 1 guarantees every pair
//! the result aligns is `σ_Edit`-close.

use crate::engine::RefineEngine;
use crate::enrich::enrich;
use crate::methods::hybrid_partition_with;
use crate::overlap::{overlap_match, OverlapMatchStats};
use crate::partition::{NodeKinds, SideCounts};
use crate::propagate::propagate_with;
use crate::weighted::WeightedPartition;
use rdf_model::{CombinedGraph, FxHashMap, NodeId, TripleGraph, Vocab};
use rdf_edit::algebra::oplus;
use rdf_edit::levenshtein::normalized_levenshtein;
use std::hash::BuildHasher;

/// Parameters of the overlap alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapConfig {
    /// Similarity threshold θ (Fig 15 finds 0.65 optimal on GtoPdb).
    pub theta: f64,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig { theta: 0.65 }
    }
}

/// Cap on outer iterations (each aligns ≥ 1 new pair, so this only
/// guards pathological inputs).
const MAX_ROUNDS: usize = 64;

/// Per-round diagnostics of Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub struct OverlapRound {
    /// Whether this round matched literals (round 0) or non-literals.
    pub literal_round: bool,
    /// Unaligned source nodes considered.
    pub a_size: usize,
    /// Unaligned target nodes considered.
    pub b_size: usize,
    /// Matcher statistics.
    pub stats: OverlapMatchStats,
}

/// Result of the overlap alignment.
#[derive(Debug, Clone)]
pub struct OverlapOutcome {
    /// The final weighted partition `ξ_Overlap`.
    pub weighted: WeightedPartition,
    /// Per-round diagnostics (round 0 is the literal round).
    pub rounds: Vec<OverlapRound>,
}

/// Split a literal into its word set, hashed to stable object ids
/// (the `split` characterising function of §4.7).
pub fn split_words(text: &str) -> Vec<u64> {
    let hasher = rdf_model::FxBuildHasher::default();
    let mut words: Vec<u64> = text
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| hasher.hash_one(w))
        .collect();
    words.sort_unstable();
    words.dedup();
    words
}

/// `out-color_ξ(n)`: the set of colors of outgoing edges, packed as
/// `(color(p) << 32) | color(o)`.
pub fn out_colors(
    g: &TripleGraph,
    xi: &WeightedPartition,
    n: NodeId,
) -> Vec<u64> {
    let mut cs: Vec<u64> = g
        .out(n)
        .iter()
        .map(|(p, o)| {
            ((xi.color(p).0 as u64) << 32) | xi.color(o).0 as u64
        })
        .collect();
    cs.sort_unstable();
    cs.dedup();
    cs
}

/// The non-literal confirming distance `σ_ξ^NL` of §4.7.
///
/// Couples the outgoing edges of `n` and `m` that share an edge color,
/// pairing them by rank when ordered by edge weight `ω(p) ⊕ ω(o)` (the
/// optimal matching within one cluster needs no Hungarian search because
/// intra-cluster distances depend only on the endpoint weights). Each
/// coupled pair contributes `(σ_ξ(p1,p2) ⊕ σ_ξ(o1,o2)) / f`; the `R`
/// uncoupled edges contribute `R / f`, with
/// `f = max(|out(n)|, |out(m)|)`.
pub fn sigma_nl(
    g: &TripleGraph,
    xi: &WeightedPartition,
    n: NodeId,
    m: NodeId,
) -> f64 {
    let out_n = g.out(n);
    let out_m = g.out(m);
    let f = out_n.len().max(out_m.len());
    if f == 0 {
        return 0.0;
    }
    if out_n.is_empty() || out_m.is_empty() {
        return 1.0;
    }
    // Group edges by edge color; remember (weight(p)+weight(o) key, p, o).
    let mut groups_n: FxHashMap<u64, Vec<(f64, NodeId, NodeId)>> =
        FxHashMap::default();
    for (p, o) in out_n {
        let key = ((xi.color(p).0 as u64) << 32) | xi.color(o).0 as u64;
        groups_n
            .entry(key)
            .or_default()
            .push((oplus(xi.weight(p), xi.weight(o)), p, o));
    }
    let mut groups_m: FxHashMap<u64, Vec<(f64, NodeId, NodeId)>> =
        FxHashMap::default();
    for (p, o) in out_m {
        let key = ((xi.color(p).0 as u64) << 32) | xi.color(o).0 as u64;
        groups_m
            .entry(key)
            .or_default()
            .push((oplus(xi.weight(p), xi.weight(o)), p, o));
    }

    let ff = f as f64;
    let mut acc = 0.0f64;
    let mut coupled = 0usize;
    for (key, list_n) in groups_n.iter_mut() {
        let Some(list_m) = groups_m.get_mut(key) else {
            continue;
        };
        // Rank-coupling by weight: within one cluster the pair cost is
        // ω ⊕ ω, so sorting both lists and zipping is already optimal.
        list_n.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        list_m.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        for ((_, p1, o1), (_, p2, o2)) in list_n.iter().zip(list_m.iter()) {
            let d = oplus(
                oplus(xi.weight(*p1), xi.weight(*p2)),
                oplus(xi.weight(*o1), xi.weight(*o2)),
            );
            acc = oplus(acc, d / ff);
            coupled += 1;
        }
    }
    let r = (out_n.len() - coupled) + (out_m.len() - coupled);
    oplus(acc, (r as f64 / ff).min(1.0))
}

/// Run the overlap alignment (Algorithm 2) over a combined graph.
pub fn overlap_align(
    combined: &CombinedGraph,
    vocab: &Vocab,
    config: OverlapConfig,
) -> OverlapOutcome {
    overlap_align_with(combined, vocab, config, &mut RefineEngine::auto())
}

/// As [`overlap_align`], running the hybrid bootstrap and every
/// propagation round through a caller-owned refinement engine.
pub fn overlap_align_with(
    combined: &CombinedGraph,
    vocab: &Vocab,
    config: OverlapConfig,
    engine: &mut RefineEngine,
) -> OverlapOutcome {
    let g = combined.graph();
    let hybrid = hybrid_partition_with(combined, engine).partition;
    let mut xi = WeightedPartition::zero(hybrid);
    let mut rounds = Vec::new();

    // Round 0: unaligned literals, word overlap + σ_Literals.
    let (a0, b0) = unaligned_by_side(&xi, combined, NodeKinds::Literal);
    let char_a: Vec<Vec<u64>> = a0
        .iter()
        .map(|&n| split_words(vocab.text(g.label(n))))
        .collect();
    let char_b: Vec<Vec<u64>> = b0
        .iter()
        .map(|&n| split_words(vocab.text(g.label(n))))
        .collect();
    let (mut h, stats) = overlap_match(
        &a0,
        &char_a,
        &b0,
        &char_b,
        config.theta,
        |n, m| {
            normalized_levenshtein(
                vocab.text(g.label(n)),
                vocab.text(g.label(m)),
            )
        },
    );
    rounds.push(OverlapRound {
        literal_round: true,
        a_size: a0.len(),
        b_size: b0.len(),
        stats,
    });

    // Non-literal rounds: enrich + propagate, then match non-literals.
    for _ in 0..MAX_ROUNDS {
        xi = propagate_with(combined, &enrich(&xi, &h), engine);
        let (a, b) = unaligned_by_side(&xi, combined, NodeKinds::NonLiteral);
        let char_a: Vec<Vec<u64>> =
            a.iter().map(|&n| out_colors(g, &xi, n)).collect();
        let char_b: Vec<Vec<u64>> =
            b.iter().map(|&n| out_colors(g, &xi, n)).collect();
        let (h_next, stats) = {
            let xi_ref = &xi;
            overlap_match(
                &a,
                &char_a,
                &b,
                &char_b,
                config.theta,
                |n, m| sigma_nl(g, xi_ref, n, m),
            )
        };
        rounds.push(OverlapRound {
            literal_round: false,
            a_size: a.len(),
            b_size: b.len(),
            stats,
        });
        if h_next.is_empty() {
            break;
        }
        h = h_next;
    }

    OverlapOutcome {
        weighted: xi,
        rounds,
    }
}

/// Unaligned nodes of each side among `kinds`.
fn unaligned_by_side(
    xi: &WeightedPartition,
    combined: &CombinedGraph,
    kinds: NodeKinds,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let (p, g) = (&xi.partition, combined.graph());
    let counts = SideCounts::new(p, combined);
    (
        counts.unaligned(p, g, kinds, combined.source_nodes()),
        counts.unaligned(p, g, kinds, combined.target_nodes()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::hybrid_partition;
    use rdf_model::{RdfGraphBuilder, Vocab};

    /// Single-token typo'd literals: §4.7's `split` characterises a
    /// literal by its words, and "calcitonin" vs "calcitonim" share
    /// none, so the literal round never proposes the pair even though
    /// σ_Literals = 0.1 would confirm it.
    #[test]
    fn word_literal_round_misses_single_token_typo() {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("l685", "name", "calcitonin");
            b.uul("l685", "kind", "peptide");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("l685", "name", "calcitonim"); // one-char typo
            b.uul("l685", "kind", "peptide");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let old_name = c
            .source_nodes()
            .find(|&n| v.text(c.graph().label(n)) == "calcitonin")
            .unwrap();
        let new_name = c
            .target_nodes()
            .find(|&n| v.text(c.graph().label(n)) == "calcitonim")
            .unwrap();
        let w1 = split_words("calcitonin");
        let w2 = split_words("calcitonim");
        assert!(w1.iter().all(|w| !w2.contains(w)));
        let out = overlap_align(&c, &v, OverlapConfig::default());
        assert!(!out.weighted.partition.same_class(old_name, new_name));
    }

    #[test]
    fn split_words_basic() {
        let w1 = split_words("University of Edinburgh");
        assert_eq!(w1.len(), 3);
        let w2 = split_words("University  of  Edinburgh!");
        assert_eq!(w1, w2);
        assert!(split_words("").is_empty());
        assert_eq!(split_words("dup dup dup").len(), 1);
    }

    /// Literal matching: two multi-word literals with one word edited.
    #[test]
    fn literal_round_matches_edited_literal() {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("e1", "label", "experimental factor ontology term one");
            b.uul("e1", "comment", "totally different text here");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("e2", "label", "experimental factor ontology term two");
            b.uul("e2", "comment", "nothing shared with before at all");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let out = overlap_align(&c, &v, OverlapConfig::default());
        // The edited labels share 5 of 6 words: overlap 5/7? words:
        // {experimental,factor,ontology,term,one} vs {...,two}:
        // |∩|=4, |∪|=6 → 2/3 ≥ 0.65 → candidate; σ_Literals small.
        let lbl1 = c
            .source_nodes()
            .find(|&n| {
                c.graph().is_literal(n)
                    && v.text(c.graph().label(n)).starts_with("experimental")
            })
            .unwrap();
        let lbl2 = c
            .target_nodes()
            .find(|&n| {
                c.graph().is_literal(n)
                    && v.text(c.graph().label(n)).starts_with("experimental")
            })
            .unwrap();
        assert!(
            out.weighted.partition.same_class(lbl1, lbl2),
            "edited labels should be overlap-aligned"
        );
        // And the distance is consistent with the literal edit distance.
        let d = out.weighted.distance(lbl1, lbl2);
        assert!(d < 0.65, "weighted distance {d}");
    }

    /// Non-literal matching: renamed URIs with mostly-shared content,
    /// shaped like a GtoPdb tuple (many value attributes, one changed).
    #[test]
    fn nl_round_matches_renamed_uri() {
        let mut v = Vocab::new();
        let attrs = [
            ("name", "calcitonin"),
            ("type", "peptide"),
            ("species", "human"),
            ("family", "calcitonin receptor ligands"),
            ("units", "nM"),
            ("year", "1984"),
        ];
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            for (p, o) in attrs {
                b.uul("old:ligand685", p, o);
            }
            b.uul("old:ligand685", "status", "approved"); // will change
            b.uul("old:ligand9", "name", "aspirin");
            b.uul("old:ligand9", "type", "small molecule");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            for (p, o) in attrs {
                b.uul("new:ligand685", p, o);
            }
            b.uul("new:ligand685", "status", "withdrawn"); // one change
            b.uul("new:ligand9", "name", "aspirin");
            b.uul("new:ligand9", "type", "small molecule");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let l685_s = c
            .source_nodes()
            .find(|&n| v.text(c.graph().label(n)) == "old:ligand685")
            .unwrap();
        let l685_t = c
            .target_nodes()
            .find(|&n| v.text(c.graph().label(n)) == "new:ligand685")
            .unwrap();
        // Unchanged ligand9 is already aligned by Hybrid (its recolored
        // content is identical); changed ligand685 is not.
        let hybrid = hybrid_partition(&c).partition;
        assert!(!hybrid.same_class(l685_s, l685_t));
        // Overlap at the default θ=0.65: out-color overlap is 6/8 = 0.75
        // ≥ θ and σ_NL = 2/7 < θ → aligned.
        let out = overlap_align(&c, &v, OverlapConfig::default());
        assert!(
            out.weighted.partition.same_class(l685_s, l685_t),
            "changed tuple URI aligned at θ=0.65"
        );
        // The weighted distance reflects the single changed attribute.
        let d = out.weighted.distance(l685_s, l685_t);
        assert!(d > 0.0 && d < 0.65, "distance {d}");
        // At a stricter θ=0.8 the pair is missed (overlap 0.75 < θ):
        // the Fig 15 trade-off.
        let strict = overlap_align(
            &c,
            &v,
            OverlapConfig { theta: 0.8 },
        );
        assert!(!strict.weighted.partition.same_class(l685_s, l685_t));
    }

    #[test]
    fn sigma_nl_identical_content_is_zero() {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("a", "p", "x");
            b.uul("a", "q", "y");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("b", "p", "x");
            b.uul("b", "q", "y");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let xi = WeightedPartition::zero(crate::methods::trivial_partition(&c));
        let a = c.source_nodes().next().unwrap();
        let b = c.target_nodes().next().unwrap();
        assert_eq!(sigma_nl(c.graph(), &xi, a, b), 0.0);
    }

    #[test]
    fn sigma_nl_counts_unmatched_edges() {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("a", "p", "x");
            b.uul("a", "q", "y");
            b.uul("a", "r", "z");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("b", "p", "x");
            b.uul("b", "q", "y");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let xi = WeightedPartition::zero(crate::methods::trivial_partition(&c));
        let a = c.source_nodes().next().unwrap();
        let b = c.target_nodes().next().unwrap();
        // f = 3, two coupled at 0, R = 1 → 1/3.
        assert!((sigma_nl(c.graph(), &xi, a, b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sigma_nl_no_content() {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uuu("x", "p", "sink1");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uuu("y", "p", "sink2");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let xi = WeightedPartition::zero(crate::methods::trivial_partition(&c));
        let s1 = c
            .source_nodes()
            .find(|&n| v.text(c.graph().label(n)) == "sink1")
            .unwrap();
        let s2 = c
            .target_nodes()
            .find(|&n| v.text(c.graph().label(n)) == "sink2")
            .unwrap();
        assert_eq!(sigma_nl(c.graph(), &xi, s1, s2), 0.0);
        let x = c.source_nodes().next().unwrap();
        assert_eq!(sigma_nl(c.graph(), &xi, x, s2), 1.0);
    }

    #[test]
    fn terminates_when_nothing_to_match() {
        let mut v = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g.clone(), &g);
        let out = overlap_align(&c, &v, OverlapConfig::default());
        // Self-alignment: everything aligned by hybrid; one literal round
        // plus one empty NL round.
        assert!(out.rounds.len() <= 2);
        assert!(out
            .weighted
            .weights
            .iter()
            .all(|&w| w == 0.0));
    }
}
