//! Property-based tests over randomly generated graphs and inputs:
//! the formal invariants of §2–§4 must hold on *every* input, not just
//! the worked examples.

use proptest::prelude::*;
use rdf_align::align::{has_crossover_property, AlignmentView};
use rdf_align::bisim::{naive_maximal_bisimulation, partition_matches_relation};
use rdf_align::methods::{
    alignment_subset, deblank_partition, hybrid_partition, trivial_partition,
};
use rdf_align::overlap::{overlap_sorted, PrefixBound};
use rdf_align::refine::{
    bisimulation_partition, label_partition, reference_refine_step,
};
use rdf_edit::hungarian::hungarian;
use rdf_edit::levenshtein::{levenshtein, normalized_levenshtein};
use rdf_model::{CombinedGraph, GraphBuilder, LabelId, RdfGraph, RdfGraphBuilder, Vocab};

/// A random small triple graph: `n` nodes with labels drawn from a small
/// pool (some blank), `m` random triples.
fn arb_triple_graph() -> impl Strategy<Value = rdf_model::TripleGraph> {
    (2usize..12, 0usize..30, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut vocab = Vocab::new();
        let mut b = GraphBuilder::new();
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            let label = match next() % 4 {
                0 => LabelId::BLANK,
                1 => vocab.literal(&format!("lit{}", next() % 3)),
                _ => vocab.uri(&format!("u{}", (i as u64 + next()) % 5)),
            };
            b.add_node(label, &vocab);
        }
        for _ in 0..m {
            let s = rdf_model::NodeId((next() % n as u64) as u32);
            let p = rdf_model::NodeId((next() % n as u64) as u32);
            let o = rdf_model::NodeId((next() % n as u64) as u32);
            b.add_triple(s, p, o);
        }
        b.freeze()
    })
}

/// A pair of random RDF version graphs over one vocabulary: a base
/// version plus a perturbed copy (some triples dropped, one literal
/// edited, one URI renamed).
fn arb_version_pair() -> impl Strategy<Value = (Vocab, RdfGraph, RdfGraph)> {
    (1usize..8, any::<u64>()).prop_map(|(entities, seed)| {
        let mut vocab = Vocab::new();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut render = |vocab: &mut Vocab, perturb: bool| {
            let mut b = RdfGraphBuilder::new(vocab);
            for e in 0..entities {
                let renamed = perturb && e == 0;
                let uri = if renamed {
                    format!("new:e{e}")
                } else {
                    format!("old:e{e}")
                };
                b.uul(
                    &uri,
                    "label",
                    &format!("entity number {e} value {}", u64::from(perturb && e == 1)),
                );
                if next() % 2 == 0 {
                    let bn = format!("rec{e}");
                    b.uub(&uri, "record", &bn);
                    b.bul(&bn, "field", &format!("field value {}", e % 3));
                }
                if e > 0 && !(perturb && next() % 8 == 0) {
                    b.uuu(&uri, "rel", "old:e0");
                }
            }
            b.finish()
        };
        let v1 = render(&mut vocab, false);
        let v2 = render(&mut vocab, true);
        (vocab, v1, v2)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Refinement only splits classes (Definition 3: Λ(λ) finer than λ).
    #[test]
    fn refinement_is_monotone(g in arb_triple_graph()) {
        let initial = label_partition(&g);
        let all = vec![true; g.node_count()];
        let (step, _) = reference_refine_step(&g, &initial, &all);
        prop_assert!(step.finer_than(&initial));
        let (step2, _) = reference_refine_step(&g, &step, &all);
        prop_assert!(step2.finer_than(&step));
    }

    /// Proposition 1: the refinement engine computes exactly the maximal
    /// bisimulation (validated against the naive fixpoint).
    #[test]
    fn proposition1_engine_matches_naive(g in arb_triple_graph()) {
        let rel = naive_maximal_bisimulation(&g);
        let out = bisimulation_partition(&g);
        prop_assert!(partition_matches_relation(&out.partition, &rel));
    }

    /// The Trivial ⊆ Deblank ⊆ Hybrid hierarchy (§3.4) on random version
    /// pairs.
    #[test]
    fn hierarchy_on_random_pairs((vocab, v1, v2) in arb_version_pair()) {
        let c = CombinedGraph::union(&vocab, &v1, &v2);
        let t = trivial_partition(&c);
        let d = deblank_partition(&c).partition;
        let h = hybrid_partition(&c).partition;
        prop_assert!(alignment_subset(&t, &d, &c));
        prop_assert!(alignment_subset(&d, &h, &c));
    }

    /// Partition-induced alignments always have the crossover property
    /// (§3.1).
    #[test]
    fn crossover_property((vocab, v1, v2) in arb_version_pair()) {
        let c = CombinedGraph::union(&vocab, &v1, &v2);
        let h = hybrid_partition(&c).partition;
        let view = AlignmentView::new(&h, &c);
        prop_assert!(has_crossover_property(&view.pairs()));
    }

    /// Self-alignment under Deblank is complete for any RDF graph
    /// (Fig 10 diagonal).
    #[test]
    fn self_alignment_complete((vocab, v1, _v2) in arb_version_pair()) {
        let c = CombinedGraph::union(&vocab, &v1, &v1);
        let d = deblank_partition(&c).partition;
        prop_assert!(
            rdf_align::partition::unaligned_nodes(&d, &c).is_empty()
        );
    }

    /// Levenshtein is a metric and normalisation stays in [0, 1].
    #[test]
    fn levenshtein_metric(a in ".{0,12}", b in ".{0,12}", c in ".{0,8}") {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert!(
            levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c)
        );
        let d = normalized_levenshtein(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        // Identity of indiscernibles for the normalised form.
        prop_assert_eq!(d == 0.0, a == b);
    }

    /// Hungarian result is never worse than the identity or any greedy
    /// row-by-row assignment, and is a valid injection.
    #[test]
    fn hungarian_optimality(
        rows in 1usize..5,
        extra in 0usize..3,
        cells in proptest::collection::vec(0u32..1000, 25),
    ) {
        let cols = rows + extra;
        let cost: Vec<Vec<f64>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| cells[(r * cols + c) % cells.len()] as f64)
                    .collect()
            })
            .collect();
        let a = hungarian(&cost);
        // Valid injection.
        let mut seen = vec![false; cols];
        for &c in &a.row_to_col {
            prop_assert!(c < cols);
            prop_assert!(!seen[c]);
            seen[c] = true;
        }
        // Not worse than greedy.
        let mut taken = vec![false; cols];
        let mut greedy = 0.0;
        for row in &cost {
            let (best, val) = (0..cols)
                .filter(|&c| !taken[c])
                .map(|c| (c, row[c]))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            taken[best] = true;
            greedy += val;
        }
        prop_assert!(a.cost <= greedy + 1e-9);
    }

    /// overlap(O1, O2) is symmetric, bounded and 1 exactly on equal sets.
    #[test]
    fn overlap_measure_properties(
        mut o1 in proptest::collection::vec(0u64..50, 0..12),
        mut o2 in proptest::collection::vec(0u64..50, 0..12),
    ) {
        o1.sort_unstable();
        o1.dedup();
        o2.sort_unstable();
        o2.dedup();
        let v = overlap_sorted(&o1, &o2);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert_eq!(v, overlap_sorted(&o2, &o1));
        prop_assert_eq!(v == 1.0, o1 == o2);
    }

    /// The safe prefix bound never misses a pair with overlap ≥ θ.
    #[test]
    fn safe_prefix_bound_complete(
        theta in 0.05f64..0.95,
        sets in proptest::collection::vec(
            proptest::collection::vec(0u64..30, 1..10),
            2..8,
        ),
    ) {
        let k = sets.len() / 2;
        let mk = |v: &Vec<u64>| {
            let mut v = v.clone();
            v.sort_unstable();
            v.dedup();
            v
        };
        let char_a: Vec<Vec<u64>> = sets[..k].iter().map(mk).collect();
        let char_b: Vec<Vec<u64>> = sets[k..].iter().map(mk).collect();
        let a: Vec<rdf_model::NodeId> =
            (0..k as u32).map(rdf_model::NodeId).collect();
        let b: Vec<rdf_model::NodeId> =
            (100..100 + char_b.len() as u32).map(rdf_model::NodeId).collect();
        let (h, _) = rdf_align::overlap::overlap_match(
            &a, &char_a, &b, &char_b, theta, |_, _| 0.0, PrefixBound::Safe,
        );
        let mut expected = 0usize;
        for ca in &char_a {
            for cb in &char_b {
                if !ca.is_empty() && overlap_sorted(ca, cb) >= theta {
                    expected += 1;
                }
            }
        }
        prop_assert_eq!(h.len(), expected);
    }

    /// N-Triples round trip: parse(write(g)) preserves structure.
    #[test]
    fn ntriples_round_trip((vocab, v1, _v2) in arb_version_pair()) {
        let text = rdf_io::write_graph(&v1, &vocab);
        let mut fresh = Vocab::new();
        let parsed = rdf_io::parse_graph(&text, &mut fresh).unwrap();
        prop_assert_eq!(parsed.triple_count(), v1.triple_count());
        prop_assert_eq!(parsed.node_count(), v1.node_count());
        // Idempotence: a second round trip is byte-identical.
        let text2 = rdf_io::write_graph(&parsed, &fresh);
        prop_assert_eq!(text, text2);
    }
}
