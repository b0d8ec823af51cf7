//! Round-trip property tests: `parse_graph(write_graph(g))` must
//! reproduce `g` exactly at the term level — URIs, literals (including
//! characters that need escaping), language tags, datatypes, and blank
//! nodes — and a second round trip must be byte-identical.

mod common;

use proptest::prelude::*;
use rdf_io::{parse_graph, write_graph};
use rdf_model::{LabelRef, NodeId, RdfGraph, Term, Vocab};

/// Awkward characters that exercise both literal and IRI escaping.
const TRICKY: &[&str] = &[
    "", " ", "\"", "\\", "\n", "\r", "\t", "\"\"", "\\n", "café", "😀",
    "a b", "x\\\"y", "line1\nline2", "tab\there", "<angle>", "fin.",
];

/// Resolve a node to a self-contained term (blank nodes by their
/// recorded local name) so graphs from different vocabularies compare.
fn term_of(g: &RdfGraph, vocab: &Vocab, n: NodeId) -> Term {
    match vocab.resolve(g.graph().label(n)) {
        LabelRef::Uri(u) => Term::uri(u),
        LabelRef::Literal(l) => Term::literal(l),
        LabelRef::Blank => Term::blank(
            g.blank_name(n).map(str::to_owned).unwrap_or_else(|| format!("b{}", n.0)),
        ),
    }
}

/// The graph as a sorted list of term triples — the identity that must
/// survive serialisation.
fn term_triples(g: &RdfGraph, vocab: &Vocab) -> Vec<(Term, Term, Term)> {
    let mut out: Vec<(Term, Term, Term)> = g
        .graph()
        .triples()
        .map(|t| {
            (
                term_of(g, vocab, t.s),
                term_of(g, vocab, t.p),
                term_of(g, vocab, t.o),
            )
        })
        .collect();
    out.sort();
    out
}

/// A random RDF graph mixing URI/blank subjects and URI/literal/blank
/// objects, with labels drawn from the tricky pool.
fn arb_rdf_graph() -> impl Strategy<Value = (Vocab, RdfGraph)> {
    (1usize..20, any::<u64>()).prop_map(|(m, seed)| {
        let mut vocab = Vocab::new();
        let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..m {
            let s_uri = format!("http://e.org/s{}", next() % 6);
            let s_blank = format!("bn{}", next() % 5);
            let p = format!("http://e.org/p{}", next() % 4);
            let tricky = TRICKY[(next() % TRICKY.len() as u64) as usize];
            let lit = match next() % 4 {
                0 => tricky.to_string(),
                1 => format!("{tricky}@en"),
                2 => format!("{}^^http://www.w3.org/2001/XMLSchema#string", next() % 9),
                _ => format!("value {} {tricky}", next() % 7),
            };
            let o_blank = format!("bn{}", next() % 5);
            let o_uri = format!("http://e.org/o-{}", next() % 8);
            match next() % 5 {
                0 => b.uuu(&s_uri, &p, &o_uri),
                1 => b.uul(&s_uri, &p, &lit),
                2 => b.uub(&s_uri, &p, &o_blank),
                3 => b.bul(&s_blank, &p, &lit),
                _ => b.bub(&s_blank, &p, &o_blank),
            }
        }
        let g = b.finish();
        (vocab, g)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `parse_graph(write_graph(g)) == g` up to term identity, and the
    /// canonical (line-sorted) serialisation is a byte-level fixed point:
    /// reparsing and re-writing reproduces the text exactly even though
    /// node ids are reassigned by first appearance.
    #[test]
    fn write_parse_is_identity((vocab, g) in arb_rdf_graph()) {
        let text = write_graph(&g, &vocab);
        let mut fresh = Vocab::new();
        let parsed = parse_graph(&text, &mut fresh).unwrap();
        prop_assert_eq!(parsed.graph().triple_count(), g.graph().triple_count());
        prop_assert_eq!(parsed.graph().node_count(), g.graph().node_count());
        prop_assert_eq!(term_triples(&parsed, &fresh), term_triples(&g, &vocab));
        let text2 = write_graph(&parsed, &fresh);
        prop_assert_eq!(text, text2);
    }

    /// The same documents streamed a few bytes at a time parse exactly
    /// as they do in memory.
    #[test]
    fn streamed_parse_matches_in_memory(
        (vocab, g) in arb_rdf_graph(),
        seed in any::<u64>(),
    ) {
        common::assert_streaming_matches(&write_graph(&g, &vocab), seed);
    }
}

#[test]
fn escaped_literal_round_trip() {
    let mut vocab = Vocab::new();
    let g = {
        let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
        b.uul("u:s", "u:p", "say \"hi\"\\now\nor\tnever\r");
        b.uul("u:s", "u:q", "plain@en");
        b.uub("u:s", "u:rec", "b-1");
        b.bul("b-1", "u:field", "nested \\\" escape");
        b.finish()
    };
    let text = write_graph(&g, &vocab);
    let mut fresh = Vocab::new();
    let parsed = parse_graph(&text, &mut fresh).unwrap();
    assert_eq!(term_triples(&parsed, &fresh), term_triples(&g, &vocab));
}

#[test]
fn blank_heavy_graph_round_trip() {
    // A chain of blank nodes only — names must survive verbatim.
    let mut vocab = Vocab::new();
    let g = {
        let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
        b.bub("a", "u:next", "b");
        b.bub("b", "u:next", "c");
        b.bul("c", "u:val", "end");
        b.finish()
    };
    let text = write_graph(&g, &vocab);
    let mut fresh = Vocab::new();
    let parsed = parse_graph(&text, &mut fresh).unwrap();
    assert_eq!(term_triples(&parsed, &fresh), term_triples(&g, &vocab));
    assert_eq!(parsed.graph().triple_count(), 3);
}
