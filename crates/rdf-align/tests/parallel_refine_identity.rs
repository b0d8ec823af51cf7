//! The parallel engine must be *indistinguishable* from the sequential
//! reference: at 1, 2 and 4 threads it must produce partitions with the
//! same dense color vectors — not merely equivalent partitions — for
//! random version pairs, across the Trivial/Deblank/Hybrid method
//! family, and on a union that spans several engine blocks; and it must
//! be deterministic run to run at a fixed thread count. This is the
//! determinism guarantee the CLI's `--threads 1` vs `--threads 4` CI
//! diff also checks end to end. The reference interns exact keys, so a
//! signature collision in the engine would fail these suites.

use proptest::prelude::*;
use rdf_align::engine::RefineEngine;
use rdf_align::methods::{
    blank_out, deblank_partition_with, hybrid_from_with,
    hybrid_partition_with, trivial_partition,
};
use rdf_align::partition::unaligned_non_literals;
use rdf_align::refine::{
    label_partition, reference_refine_fixpoint_mask, RefineOutcome,
};
use rdf_align::Threads;
use rdf_model::{CombinedGraph, RdfGraph, RdfGraphBuilder, Vocab};

/// A random pair of graph versions sharing a vocabulary: overlapping
/// URI/blank/literal pools so some nodes align, some rename, some churn.
fn arb_versions() -> impl Strategy<Value = (Vocab, RdfGraph, RdfGraph)> {
    (1usize..24, 1usize..24, any::<u64>()).prop_map(|(m1, m2, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut vocab = Vocab::new();
        let build = |vocab: &mut Vocab,
                     triples: usize,
                     next: &mut dyn FnMut() -> u64| {
            let mut b = RdfGraphBuilder::new(vocab);
            for _ in 0..triples {
                let s = format!("s{}", next() % 6);
                let p = format!("p{}", next() % 4);
                let o = format!("o{}", next() % 6);
                match next() % 6 {
                    0 => b.uuu(&s, &p, &o),
                    1 => b.uul(&s, &p, &o),
                    2 => b.uub(&s, &p, &o),
                    3 => b.bul(&s, &p, &o),
                    4 => b.buu(&s, &p, &o),
                    _ => b.bub(&s, &p, &o),
                }
            }
            b.finish()
        };
        let g1 = build(&mut vocab, m1, &mut next);
        let g2 = build(&mut vocab, m2, &mut next);
        (vocab, g1, g2)
    })
}

/// Sequential-reference Deblank: the method's definition run through
/// [`reference_refine_fixpoint_mask`] instead of the engine.
fn reference_deblank(combined: &CombinedGraph) -> RefineOutcome {
    let g = combined.graph();
    let in_x: Vec<bool> = g.nodes().map(|n| g.is_blank(n)).collect();
    reference_refine_fixpoint_mask(g, label_partition(g), &in_x)
}

/// Sequential-reference Hybrid from a given base partition.
fn reference_hybrid_from(
    combined: &CombinedGraph,
    base: rdf_align::Partition,
) -> RefineOutcome {
    let g = combined.graph();
    let unaligned = unaligned_non_literals(&base, combined);
    let blanked = blank_out(&base, &unaligned);
    let mut in_x = vec![false; g.node_count()];
    for &n in &unaligned {
        in_x[n.index()] = true;
    }
    reference_refine_fixpoint_mask(g, blanked, &in_x)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full bisimulation: engine at every thread count == reference,
    /// same dense colors and same round count.
    #[test]
    fn bisimulation_identical_to_reference((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let g = c.graph();
        let all = vec![true; g.node_count()];
        let reference =
            reference_refine_fixpoint_mask(g, label_partition(g), &all);
        for t in THREAD_COUNTS {
            let out = RefineEngine::new(Threads::Fixed(t)).bisimulation(g);
            prop_assert_eq!(
                out.partition.colors(),
                reference.partition.colors()
            );
            prop_assert_eq!(out.rounds, reference.rounds);
        }
    }

    /// Deblank: engine at every thread count == sequential reference.
    #[test]
    fn deblank_identical_to_reference((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let reference = reference_deblank(&c);
        for t in THREAD_COUNTS {
            let mut engine = RefineEngine::new(Threads::Fixed(t));
            let out = deblank_partition_with(&c, &mut engine);
            prop_assert_eq!(
                out.partition.colors(),
                reference.partition.colors()
            );
        }
    }

    /// Hybrid (from Deblank *and* from Trivial, per §3.4): engine at
    /// every thread count == sequential reference, dense colors equal.
    #[test]
    fn hybrid_identical_to_reference((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let ref_deblank = reference_deblank(&c).partition;
        let ref_hybrid = reference_hybrid_from(&c, ref_deblank);
        let ref_via_trivial =
            reference_hybrid_from(&c, trivial_partition(&c));
        for t in THREAD_COUNTS {
            let mut engine = RefineEngine::new(Threads::Fixed(t));
            let out = hybrid_partition_with(&c, &mut engine);
            prop_assert_eq!(
                out.partition.colors(),
                ref_hybrid.partition.colors()
            );
            // The Trivial-seeded hybrid exercises a different initial
            // partition through the same engine scratch (reuse!).
            let via_trivial =
                hybrid_from_with(&c, trivial_partition(&c), &mut engine);
            prop_assert_eq!(
                via_trivial.partition.colors(),
                ref_via_trivial.partition.colors()
            );
        }
    }

    /// Determinism: the same input refined twice at 4 threads — by a
    /// fresh engine and by a reused one — yields identical colors.
    #[test]
    fn four_threads_is_deterministic((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let mut engine = RefineEngine::new(Threads::Fixed(4));
        let first = hybrid_partition_with(&c, &mut engine);
        // Same engine again (scratch warm), then a fresh engine.
        let second = hybrid_partition_with(&c, &mut engine);
        let fresh = hybrid_partition_with(
            &c,
            &mut RefineEngine::new(Threads::Fixed(4)),
        );
        prop_assert_eq!(
            first.partition.colors(),
            second.partition.colors()
        );
        prop_assert_eq!(
            first.partition.colors(),
            fresh.partition.colors()
        );
        prop_assert_eq!(first.rounds, second.rounds);
    }
}

/// A version pair whose union spans more than one engine block
/// ([`rdf_align::engine::BLOCK`] nodes), so signatures and first
/// occurrences straddle block boundaries. Each entity `e{i}` owns a
/// blank record; records point at literals from a small pool and at
/// one of the first 997 records, so refinement takes more than one
/// changing round and classes recur across blocks. The second version
/// renames every seventh entity and edits every eleventh literal.
fn multi_block_versions(entities: usize) -> (Vocab, RdfGraph, RdfGraph) {
    let mut vocab = Vocab::new();
    let mut build = |rename: bool| {
        let mut b = RdfGraphBuilder::new(&mut vocab);
        for i in 0..entities {
            let name = |j: usize| {
                if rename && j.is_multiple_of(7) {
                    format!("n{j}")
                } else {
                    format!("e{j}")
                }
            };
            let record = format!("r{i}");
            let lit = if rename && i.is_multiple_of(11) {
                format!("edited {}", i % 300)
            } else {
                format!("value {}", i % 300)
            };
            b.uub(&name(i), "has", &record);
            b.bul(&record, "value", &lit);
            b.bub(&record, "next", &format!("r{}", i % 997));
            b.uuu(&name(i), "link", &name((i + 1) % entities));
        }
        b.finish()
    };
    let g1 = build(false);
    let g2 = build(true);
    (vocab, g1, g2)
}

/// Deblank and hybrid over a union larger than one block: the engine
/// at threads {1, 2, 4} == the exact sequential reference.
#[test]
fn multi_block_graph_identical_to_reference() {
    let (vocab, g1, g2) = multi_block_versions(20_000);
    let c = CombinedGraph::union(&vocab, &g1, &g2);
    assert!(
        c.graph().node_count() > rdf_align::engine::BLOCK,
        "the fixture must span several blocks"
    );
    let ref_deblank = reference_deblank(&c);
    let ref_hybrid = reference_hybrid_from(&c, ref_deblank.partition.clone());
    for t in THREAD_COUNTS {
        let mut engine = RefineEngine::new(Threads::Fixed(t));
        let deblank = deblank_partition_with(&c, &mut engine);
        assert_eq!(
            deblank.partition.colors(),
            ref_deblank.partition.colors(),
            "deblank diverged at {t} threads"
        );
        assert_eq!(deblank.rounds, ref_deblank.rounds);
        let hybrid = hybrid_from_with(&c, deblank.partition, &mut engine);
        assert_eq!(
            hybrid.partition.colors(),
            ref_hybrid.partition.colors(),
            "hybrid diverged at {t} threads"
        );
        assert_eq!(hybrid.rounds, ref_hybrid.rounds);
    }
}
