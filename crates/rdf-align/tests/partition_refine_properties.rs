//! Property tests for the `Partition` / refinement substrate (§2.2–§3.2):
//! the algebraic invariants behind Definition 3 (refinement order),
//! Definition 4 (stable partitions) and Proposition 1 must hold on
//! arbitrary graphs, not just the worked figures.

use proptest::prelude::*;
use rdf_align::partition::Partition;
use rdf_align::refine::{
    bisimulation_partition, label_partition, reference_refine_step,
};
use rdf_align::RefineEngine;
use rdf_model::{GraphBuilder, LabelId, NodeId, TripleGraph, Vocab};

/// A random small triple graph with a mix of blank, literal and URI
/// nodes, driven by a xorshift stream so cases are reproducible.
fn arb_graph() -> impl Strategy<Value = TripleGraph> {
    (1usize..14, 0usize..40, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut vocab = Vocab::new();
        let mut b = GraphBuilder::new();
        let mut state = seed | 1;
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
                _ => vocab.uri(&format!("u{}", (i as u64 + next()) % 6)),
            };
            b.add_node(label, &vocab);
        }
        for _ in 0..m {
            let s = NodeId((next() % n as u64) as u32);
            let p = NodeId((next() % n as u64) as u32);
            let o = NodeId((next() % n as u64) as u32);
            b.add_triple(s, p, o);
        }
        b.freeze()
    })
}

/// A random membership mask for the refinement subset `X`.
fn arb_mask(g: &TripleGraph, seed: u64) -> Vec<bool> {
    let mut state = seed | 1;
    (0..g.node_count())
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            !state.is_multiple_of(3)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `same_class` is an equivalence relation: reflexive, symmetric and
    /// transitive on every partition the engine produces (§2.2).
    #[test]
    fn same_class_is_an_equivalence_relation(g in arb_graph()) {
        let p = bisimulation_partition(&g).partition;
        let nodes: Vec<NodeId> = g.nodes().collect();
        for &a in &nodes {
            prop_assert!(p.same_class(a, a), "reflexivity at {a:?}");
            for &b in &nodes {
                prop_assert_eq!(p.same_class(a, b), p.same_class(b, a));
                for &c in &nodes {
                    if p.same_class(a, b) && p.same_class(b, c) {
                        prop_assert!(p.same_class(a, c), "transitivity");
                    }
                }
            }
        }
    }

    /// One refinement step only ever splits classes, for any subset `X`
    /// (Definition 3: the result is finer than the input).
    #[test]
    fn refine_step_is_monotone_for_any_subset(
        g in arb_graph(),
        mask_seed in any::<u64>(),
    ) {
        let initial = label_partition(&g);
        let in_x = arb_mask(&g, mask_seed);
        let (step, changed) = reference_refine_step(&g, &initial, &in_x);
        prop_assert!(step.finer_than(&initial));
        // `changed` is accurate: it flags exactly non-equivalence.
        prop_assert_eq!(changed, !step.equivalent(&initial));
    }

    /// The round-by-round chain is monotone: the partition after fewer
    /// rounds is coarser than (refined by) the partition after more
    /// rounds, and the fixpoint is the finest of them all.
    #[test]
    fn fewer_rounds_give_a_coarser_partition(g in arb_graph()) {
        let all = vec![true; g.node_count()];
        let mut chain = vec![label_partition(&g)];
        loop {
            let (next, changed) =
                reference_refine_step(&g, chain.last().unwrap(), &all);
            chain.push(next);
            if !changed {
                break;
            }
        }
        for earlier in 0..chain.len() {
            for later in earlier..chain.len() {
                prop_assert!(
                    chain[later].finer_than(&chain[earlier]),
                    "round {} not finer than round {}",
                    later,
                    earlier
                );
            }
        }
        let fixpoint = bisimulation_partition(&g).partition;
        prop_assert!(fixpoint.equivalent(chain.last().unwrap()));
    }

    /// The fixpoint really is stable (Definition 4): refining it once
    /// more under the full subset changes nothing. A *partial* subset X
    /// may still split classes that straddle X (equation 1 assigns
    /// recolored nodes fresh colors), but the result is a refinement and
    /// nodes outside X keep their relative classes.
    #[test]
    fn fixpoint_is_stable_and_subsets_only_refine(
        g in arb_graph(),
        mask_seed in any::<u64>(),
    ) {
        let out = bisimulation_partition(&g);
        let all = vec![true; g.node_count()];
        let (again, changed) = reference_refine_step(&g, &out.partition, &all);
        prop_assert!(!changed);
        prop_assert!(again.equivalent(&out.partition));
        let in_x = arb_mask(&g, mask_seed);
        let sub = RefineEngine::auto()
            .refine_fixpoint_mask(&g, out.partition.clone(), &in_x);
        prop_assert!(sub.partition.finer_than(&out.partition));
        let outside: Vec<NodeId> =
            g.nodes().filter(|n| !in_x[n.index()]).collect();
        for &a in &outside {
            for &b in &outside {
                prop_assert_eq!(
                    out.partition.same_class(a, b),
                    sub.partition.same_class(a, b)
                );
            }
        }
    }

    /// Partitions stay canonical through refinement: colors are dense,
    /// numbered by first occurrence, and class sizes sum to the node
    /// count.
    #[test]
    fn refined_partitions_stay_canonical(g in arb_graph()) {
        let p = bisimulation_partition(&g).partition;
        prop_assert_eq!(p.len(), g.node_count());
        let mut max_seen: Option<u32> = None;
        for c in p.colors() {
            prop_assert!(c.0 < p.num_colors());
            // First occurrence order: a color may exceed the running
            // maximum by at most one.
            let bound = max_seen.map_or(0, |m| m + 1);
            prop_assert!(c.0 <= bound, "non-canonical color numbering");
            max_seen = Some(max_seen.map_or(c.0, |m| m.max(c.0)));
        }
        let sizes = p.class_sizes();
        prop_assert_eq!(sizes.iter().sum::<u32>() as usize, p.len());
        prop_assert!(sizes.iter().all(|&s| s > 0), "no empty classes");
    }

    /// `finer_than` is a partial order on the refinement chain, with
    /// discrete and unit partitions as bottom and top (§2.2).
    #[test]
    fn finer_than_has_discrete_bottom_and_unit_top(g in arb_graph()) {
        let p = bisimulation_partition(&g).partition;
        let n = g.node_count();
        prop_assert!(p.finer_than(&p), "reflexivity");
        prop_assert!(Partition::discrete(n).finer_than(&p));
        prop_assert!(p.finer_than(&Partition::unit(n)));
    }
}
