//! Helpers shared by the store property suites: the one reader over an
//! in-memory container image, term-level graph comparison, and the
//! random-graph strategy.

use proptest::prelude::*;
use rdf_model::{LabelRef, NodeId, RdfGraph, Term, Vocab};
use rdf_store::{BorrowedStoreReader, StoreBuf, StoreError};

/// The one reader over an aligned copy of a container image.
pub fn reader_of(bytes: &[u8]) -> BorrowedStoreReader {
    BorrowedStoreReader::from_buf(StoreBuf::from_bytes(bytes))
}

/// Load a container image through the one reader's owned decode.
pub fn load(bytes: &[u8]) -> Result<(Vocab, RdfGraph), StoreError> {
    reader_of(bytes).read_graph()
}

/// Awkward characters exercising literal and IRI escaping.
pub const TRICKY: &[&str] = &[
    "", " ", "\"", "\\", "\n", "\r", "\t", "café", "😀", "a b", "x\\\"y",
    "line1\nline2", "<angle>", "fin.",
];

pub fn term_of(g: &RdfGraph, vocab: &Vocab, n: NodeId) -> Term {
    match vocab.resolve(g.graph().label(n)) {
        LabelRef::Uri(u) => Term::uri(u),
        LabelRef::Literal(l) => Term::literal(l),
        LabelRef::Blank => Term::blank(
            g.blank_name(n)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("b{}", n.0)),
        ),
    }
}

pub fn term_triples(g: &RdfGraph, vocab: &Vocab) -> Vec<(Term, Term, Term)> {
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
/// objects, literals drawn from the tricky pool with language tags and
/// datatypes folded in.
pub fn arb_rdf_graph() -> impl Strategy<Value = (Vocab, RdfGraph)> {
    (1usize..24, any::<u64>()).prop_map(|(m, seed)| {
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
                2 => format!(
                    "{}^^http://www.w3.org/2001/XMLSchema#string",
                    next() % 9
                ),
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
