//! Property tests for the data-model substrate: builder determinism,
//! CSR adjacency consistency, union arithmetic.

use proptest::prelude::*;
use rdf_model::{
    CombinedGraph, GraphAppender, GraphBuilder, LabelId, NodeId,
    RdfGraphBuilder, Side, Triple, TripleGraph, Vocab,
};

fn arb_spec() -> impl Strategy<Value = (usize, Vec<(u8, u8, u8)>)> {
    (1usize..12).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(
                (0u8..n as u8, 0u8..n as u8, 0u8..n as u8),
                0..40,
            ),
        )
    })
}

/// A graph of `n` nodes (every third blank, the rest URIs) with the
/// given triples, through the sorting builder.
fn graph_of(n: usize, triples: &[(u8, u8, u8)]) -> TripleGraph {
    let mut vocab = Vocab::new();
    let mut b = GraphBuilder::new();
    for i in 0..n {
        let l = if i % 3 == 0 {
            LabelId::BLANK
        } else {
            vocab.uri(&format!("u{i}"))
        };
        b.add_node(l, &vocab);
    }
    for &(s, p, o) in triples {
        b.add_triple(NodeId(s as u32), NodeId(p as u32), NodeId(o as u32));
    }
    b.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CSR adjacency agrees with the raw triple list.
    #[test]
    fn out_neighbourhood_consistent((n, triples) in arb_spec()) {
        let mut vocab = Vocab::new();
        let mut b = GraphBuilder::new();
        for i in 0..n {
            let l = if i % 3 == 0 {
                LabelId::BLANK
            } else {
                vocab.uri(&format!("u{i}"))
            };
            b.add_node(l, &vocab);
        }
        for &(s, p, o) in &triples {
            b.add_triple(NodeId(s as u32), NodeId(p as u32), NodeId(o as u32));
        }
        let g = b.freeze();
        // Every triple is visible through out(); degrees sum to the
        // triple count.
        let mut total = 0;
        for node in g.nodes() {
            let out: Vec<(NodeId, NodeId)> = g.out(node).iter().collect();
            total += out.len();
            prop_assert!(out.windows(2).all(|w| w[0] <= w[1]), "sorted");
            for &(p, o) in &out {
                prop_assert!(g.has_triple(node, p, o));
            }
        }
        prop_assert_eq!(total, g.triple_count());
        // Deduplication: triple list is strictly increasing.
        let triples: Vec<Triple> = g.triples().collect();
        prop_assert!(triples.windows(2).all(|w| w[0] < w[1]));
    }

    /// Every read of the CSR columns — `triples()`, `out(n)`,
    /// `out_degree(n)`, `has_triple` and `out_columns()` — agrees with
    /// a sorted, deduplicated `Vec<Triple>` of the same edges.
    #[test]
    fn triple_graph_agrees_with_sorted_reference((n, spec) in arb_spec()) {
        let g = graph_of(n, &spec);
        let mut reference: Vec<Triple> = spec
            .iter()
            .map(|&(s, p, o)| {
                let id = |i: u8| NodeId(i as u32);
                Triple::new(id(s), id(p), id(o))
            })
            .collect();
        reference.sort_unstable();
        reference.dedup();
        prop_assert_eq!(g.triples().len(), reference.len());
        prop_assert_eq!(g.triples().collect::<Vec<_>>(), reference.clone());
        let cols = g.out_columns();
        prop_assert_eq!(cols.offsets().len(), n + 1);
        prop_assert_eq!(cols.len(), reference.len());
        for node in g.nodes() {
            let expect: Vec<(NodeId, NodeId)> = reference
                .iter()
                .filter(|t| t.s == node)
                .map(|t| (t.p, t.o))
                .collect();
            let out: Vec<(NodeId, NodeId)> = g.out(node).iter().collect();
            prop_assert_eq!(out, expect.clone());
            prop_assert_eq!(g.out(node).len(), expect.len());
            prop_assert_eq!(g.out_degree(node), expect.len());
            let from_cols: Vec<(NodeId, NodeId)> = cols
                .range(node)
                .map(|j| (cols.preds()[j], cols.objs()[j]))
                .collect();
            prop_assert_eq!(from_cols, expect);
        }
        for s in g.nodes() {
            for p in g.nodes() {
                for o in g.nodes() {
                    prop_assert_eq!(
                        g.has_triple(s, p, o),
                        reference.binary_search(&Triple::new(s, p, o)).is_ok()
                    );
                }
            }
        }
    }

    /// Reserving the union's final size before the first append
    /// changes no column: in both part orders, a reserved and an
    /// unreserved appender build the same labels, kinds, offsets and
    /// edges.
    #[test]
    fn reserved_append_builds_the_same_columns(
        (n1, t1) in arb_spec(),
        (n2, t2) in arb_spec(),
    ) {
        let (g1, g2) = (graph_of(n1, &t1), graph_of(n2, &t2));
        let append = |appender: &mut GraphAppender, g: &TripleGraph| {
            let column = |pick: fn(&Triple) -> NodeId| -> Vec<NodeId> {
                g.triples().map(|t| pick(&t)).collect()
            };
            let (s, p, o) = (column(|t| t.s), column(|t| t.p), column(|t| t.o));
            appender
                .append_columns(
                    g.labels_raw().to_vec(),
                    g.kinds_raw().to_vec(),
                    &s,
                    &p,
                    &o,
                )
                .unwrap();
        };
        for (a, b) in [(&g1, &g2), (&g2, &g1)] {
            let mut plain = GraphAppender::new();
            append(&mut plain, a);
            append(&mut plain, b);
            let plain = plain.finish();
            let mut reserved = GraphAppender::new();
            reserved.reserve(n1 + n2, t1.len() + t2.len());
            append(&mut reserved, a);
            append(&mut reserved, b);
            let reserved = reserved.finish();
            prop_assert_eq!(plain.labels_raw(), reserved.labels_raw());
            prop_assert_eq!(plain.kinds_raw(), reserved.kinds_raw());
            let (pc, rc) = (plain.out_columns(), reserved.out_columns());
            prop_assert_eq!(pc.offsets(), rc.offsets());
            prop_assert!(plain.triples().eq(reserved.triples()));
        }
    }

    /// Appending two parts — one as checked columns, one as a graph —
    /// gives the graph a sorting builder makes of both parts' triples
    /// with the second part's ids offset; a part whose triples are not
    /// ascending is refused and leaves the appender unchanged.
    #[test]
    fn appender_concatenates_sorted_parts(
        (n1, t1) in arb_spec(),
        (n2, t2) in arb_spec(),
    ) {
        let (g1, g2) = (graph_of(n1, &t1), graph_of(n2, &t2));
        let column = |pick: fn(&Triple) -> NodeId| -> Vec<NodeId> {
            g1.triples().map(|t| pick(&t)).collect()
        };
        let (s, p, o) = (column(|t| t.s), column(|t| t.p), column(|t| t.o));
        let mut appended = GraphAppender::new();
        appended
            .append_columns(
                g1.labels_raw().to_vec(),
                g1.kinds_raw().to_vec(),
                &s,
                &p,
                &o,
            )
            .unwrap();
        if s.len() > 1 {
            let mut back = s.clone();
            back.reverse();
            let mut pr = p.clone();
            pr.reverse();
            let mut or = o.clone();
            or.reverse();
            prop_assert!(appended
                .append_columns(
                    g1.labels_raw().to_vec(),
                    g1.kinds_raw().to_vec(),
                    &back,
                    &pr,
                    &or,
                )
                .is_err());
            prop_assert_eq!(appended.node_count(), n1);
        }
        appended.append_graph(&g2);
        let g = appended.finish();

        let shift = |t: Triple| {
            Triple::new(
                NodeId(t.s.0 + n1 as u32),
                NodeId(t.p.0 + n1 as u32),
                NodeId(t.o.0 + n1 as u32),
            )
        };
        let mut scrambled: Vec<Triple> =
            g1.triples().chain(g2.triples().map(shift)).collect();
        scrambled.reverse();
        let sorted = TripleGraph::from_raw_parts(
            [g1.labels_raw(), g2.labels_raw()].concat(),
            [g1.kinds_raw(), g2.kinds_raw()].concat(),
            scrambled,
        )
        .unwrap();
        prop_assert_eq!(g.labels_raw(), sorted.labels_raw());
        prop_assert_eq!(g.kinds_raw(), sorted.kinds_raw());
        prop_assert_eq!(
            g.out_columns().offsets(),
            sorted.out_columns().offsets()
        );
        prop_assert!(g.triples().eq(sorted.triples()));
    }

    /// Union bookkeeping: side, locals, and triple counts add up.
    #[test]
    fn union_arithmetic(
        (n1, t1) in arb_spec(),
        (n2, t2) in arb_spec(),
    ) {
        let mut vocab = Vocab::new();
        let build = |vocab: &mut Vocab, n: usize, ts: &[(u8, u8, u8)]| {
            let mut b = GraphBuilder::new();
            for i in 0..n {
                let l = vocab.uri(&format!("u{i}"));
                b.add_node(l, vocab);
            }
            for &(s, p, o) in ts {
                b.add_triple(
                    NodeId(s as u32),
                    NodeId(p as u32),
                    NodeId(o as u32),
                );
            }
            b.freeze()
        };
        let g1 = build(&mut vocab, n1, &t1);
        let g2 = build(&mut vocab, n2, &t2);
        let c = CombinedGraph::union_graphs(&vocab, &g1, &g2);
        prop_assert_eq!(c.graph().node_count(), n1 + n2);
        prop_assert_eq!(
            c.graph().triple_count(),
            g1.triple_count() + g2.triple_count()
        );
        for n in c.graph().nodes() {
            let (side, local) = c.to_local(n);
            match side {
                Side::Source => {
                    prop_assert_eq!(c.from_source(local), n);
                    prop_assert_eq!(c.graph().label(n), g1.label(local));
                }
                Side::Target => {
                    prop_assert_eq!(c.from_target(local), n);
                    prop_assert_eq!(c.graph().label(n), g2.label(local));
                }
            }
        }
        // No cross-side triples.
        for t in c.graph().triples() {
            prop_assert_eq!(c.side(t.s), c.side(t.p));
            prop_assert_eq!(c.side(t.s), c.side(t.o));
        }
    }

    /// The RDF builder produces one node per distinct URI/literal and
    /// maintains invariants over arbitrary term sequences.
    #[test]
    fn rdf_builder_dedup(
        uris in proptest::collection::vec(0u8..6, 1..30),
    ) {
        let mut vocab = Vocab::new();
        let mut b = RdfGraphBuilder::new(&mut vocab);
        for (i, &u) in uris.iter().enumerate() {
            b.uul(&format!("u{u}"), "p", &format!("value {}", i % 4));
        }
        let g = b.finish();
        let distinct_subjects: std::collections::HashSet<u8> =
            uris.iter().copied().collect();
        // subjects + predicate "p" + ≤4 literal values
        let expected_min = distinct_subjects.len() + 1;
        prop_assert!(g.node_count() >= expected_min);
        prop_assert!(g.node_count() <= expected_min + 4);
    }
}

#[test]
fn triple_ordering_is_lexicographic() {
    let a = Triple::new(NodeId(0), NodeId(1), NodeId(2));
    let b = Triple::new(NodeId(0), NodeId(1), NodeId(3));
    let c = Triple::new(NodeId(1), NodeId(0), NodeId(0));
    assert!(a < b);
    assert!(b < c);
}
