//! Property suite for the fixed-width (v2) store layout: for random
//! graphs, `load(save_fixed(g)) == g` term-for-term, fixed-layout loads
//! are **bit-identical** to varint loads — same dense arrays, same
//! dictionary, same canonical N-Triples export bytes — and every typed
//! corruption (mid-record
//! truncation, bad width byte, misaligned/unpadded payload, CRC flip)
//! fails with a typed [`StoreError`], never a panic.
//!
//! The borrowed-reader *lifetime* contract (a view cannot outlive its
//! buffer) is enforced at compile time by the `compile_fail` doctest on
//! [`rdf_store::BorrowedStoreReader`].

use proptest::prelude::*;
use rdf_model::{LabelRef, NodeId, RdfGraph, Term, Vocab};
use rdf_store::{
    container::{HEADER_LEN, SECTION_OVERHEAD},
    graph_to_bytes, graph_to_bytes_layout, BorrowedStoreReader, Layout,
    StoreBuf, StoreError, StoreReader,
};

/// Awkward characters exercising literal and IRI escaping.
const TRICKY: &[&str] = &[
    "", " ", "\"", "\\", "\n", "café", "😀", "a b", "x\\\"y", "<angle>",
];

fn term_of(g: &RdfGraph, vocab: &Vocab, n: NodeId) -> Term {
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

fn term_triples(g: &RdfGraph, vocab: &Vocab) -> Vec<(Term, Term, Term)> {
    let mut out: Vec<(Term, Term, Term)> = g
        .graph()
        .triples()
        .iter()
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
/// objects (same shape as `store_roundtrip.rs`).
fn arb_rdf_graph() -> impl Strategy<Value = (Vocab, RdfGraph)> {
    (1usize..28, any::<u64>()).prop_map(|(m, seed)| {
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
            let s_uri = format!("http://e.org/s{}", next() % 7);
            let s_blank = format!("bn{}", next() % 5);
            let p = format!("http://e.org/p{}", next() % 4);
            let tricky = TRICKY[(next() % TRICKY.len() as u64) as usize];
            let lit = format!("v{} {tricky}", next() % 9);
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

/// Assert two loaded (vocab, graph) pairs are bit-identical: dense
/// arrays, CSR adjacency, blank names and dictionary.
fn assert_loads_identical(
    (va, ga): &(Vocab, RdfGraph),
    (vb, gb): &(Vocab, RdfGraph),
) -> Result<(), String> {
    prop_assert_eq!(ga.graph().labels_raw(), gb.graph().labels_raw());
    prop_assert_eq!(ga.graph().kinds_raw(), gb.graph().kinds_raw());
    prop_assert_eq!(ga.graph().triples(), gb.graph().triples());
    for n in ga.graph().nodes() {
        prop_assert_eq!(ga.graph().out(n), gb.graph().out(n));
        prop_assert_eq!(ga.blank_name(n), gb.blank_name(n));
    }
    prop_assert_eq!(va.len(), vb.len());
    for i in 0..va.len() {
        let id = rdf_model::LabelId(i as u32);
        prop_assert_eq!(va.kind(id), vb.kind(id));
        prop_assert_eq!(va.text(id), vb.text(id));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `load(save_fixed(g))` reconstructs `g` term-for-term, the load
    /// is bit-identical to the varint load, and the canonical export
    /// bytes agree.
    #[test]
    fn fixed_load_is_identity_and_matches_varint(
        (vocab, g) in arb_rdf_graph()
    ) {
        let varint = StoreReader::from_bytes(
            graph_to_bytes(&vocab, &g).unwrap(),
        )
        .read_graph()
        .unwrap();
        let fixed_bytes =
            graph_to_bytes_layout(&vocab, &g, Layout::Fixed).unwrap();
        let fixed = StoreReader::from_bytes(fixed_bytes.clone())
            .read_graph()
            .unwrap();

        // Term-level identity with the original graph.
        prop_assert_eq!(
            term_triples(&fixed.1, &fixed.0),
            term_triples(&g, &vocab)
        );
        // Bit-identity and canonical-export byte-identity with the
        // varint load.
        assert_loads_identical(&fixed, &varint)?;
        prop_assert_eq!(
            rdf_io::write_graph(&fixed.1, &fixed.0),
            rdf_io::write_graph(&varint.1, &varint.0)
        );

        // The borrowed (zero-copy) view agrees with the owned load for
        // both layouts.
        for bytes in [graph_to_bytes(&vocab, &g).unwrap(), fixed_bytes] {
            let reader =
                BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
            let (bv, view) = reader.read_view().unwrap();
            prop_assert_eq!(
                view.labels(),
                varint.1.graph().labels_raw()
            );
            prop_assert_eq!(
                view.to_graph().triples(),
                varint.1.graph().triples()
            );
            prop_assert_eq!(bv.len(), varint.0.len());
        }
    }

    /// Fixed-layout writes are deterministic, and the two layouts are
    /// distinguished by the header version flag alone.
    #[test]
    fn fixed_save_is_deterministic((vocab, g) in arb_rdf_graph()) {
        let a = graph_to_bytes_layout(&vocab, &g, Layout::Fixed).unwrap();
        let b = graph_to_bytes_layout(&vocab, &g, Layout::Fixed).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(u16::from_le_bytes([a[4], a[5]]), 2);
        let v = graph_to_bytes(&vocab, &g).unwrap();
        prop_assert_eq!(u16::from_le_bytes([v[4], v[5]]), 1);
    }

    /// Every prefix-truncation of a fixed-layout store — including cuts
    /// landing mid-record inside the fixed columns — fails with a typed
    /// error, never a panic.
    #[test]
    fn fixed_truncations_fail_loudly((vocab, g) in arb_rdf_graph()) {
        let bytes =
            graph_to_bytes_layout(&vocab, &g, Layout::Fixed).unwrap();
        for cut in (0..bytes.len()).step_by(7) {
            let r = StoreReader::from_bytes(bytes[..cut].to_vec())
                .read_graph();
            prop_assert!(r.is_err(), "cut at {} must fail", cut);
        }
    }
}

/// Walk the section frames of a container, returning the payload offset
/// and length of the section with `tag`.
fn section_payload(bytes: &[u8], tag: &[u8; 4]) -> (usize, usize) {
    let mut pos = HEADER_LEN;
    while pos + SECTION_OVERHEAD <= bytes.len() {
        let found: [u8; 4] = bytes[pos..pos + 4].try_into().unwrap();
        let len = u64::from_le_bytes(
            bytes[pos + 4..pos + 12].try_into().unwrap(),
        ) as usize;
        if &found == tag {
            return (pos + SECTION_OVERHEAD, len);
        }
        pos += SECTION_OVERHEAD + len;
    }
    panic!("section {:?} not found", std::str::from_utf8(tag));
}

fn sample_fixed_store() -> (Vocab, RdfGraph, Vec<u8>) {
    let mut vocab = Vocab::new();
    let g = {
        let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
        b.uub("ss", "address", "b1");
        b.bul("b1", "zip", "EH8 9AB");
        b.bul("b1", "city", "Edinburgh");
        b.uul("ss", "name", "Sławek");
        b.uuu("ss", "employer", "ed-uni");
        b.finish()
    };
    let bytes = graph_to_bytes_layout(&vocab, &g, Layout::Fixed).unwrap();
    (vocab, g, bytes)
}

/// Recompute a section's stored CRC after tampering with its payload so
/// the corruption reaches the body decoder instead of the checksum.
fn fix_crc(bytes: &mut [u8], tag: &[u8; 4]) {
    let (off, len) = section_payload(bytes, tag);
    let crc = rdf_store::checksum::crc32(&bytes[off..off + len]);
    bytes[off - 4..off].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn fixed_bad_width_byte_is_typed() {
    let (_, _, mut bytes) = sample_fixed_store();
    // The width byte sits after the 8-byte count in the TRPL preamble.
    let (off, _) = section_payload(&bytes, b"TRPL");
    bytes[off + 8] = 3;
    fix_crc(&mut bytes, b"TRPL");
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("invalid fixed width"), "got: {msg}")
        }
        other => panic!("expected Corrupt(invalid width), got {other:?}"),
    }
}

#[test]
fn fixed_crc_flip_is_typed() {
    let (_, _, mut bytes) = sample_fixed_store();
    let (off, _) = section_payload(&bytes, b"TRPL");
    // Stored checksum sits in the 4 bytes before the payload.
    bytes[off - 4] ^= 0xff;
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::ChecksumMismatch { section, .. }) => {
            assert_eq!(&section, b"TRPL")
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn fixed_nonzero_padding_is_typed() {
    let (_, _, mut bytes) = sample_fixed_store();
    // The sample graph's node count is not a multiple of 8 at width 1,
    // so the NODE body tail is zero padding up to the 8-byte boundary.
    // Poisoning it must be detected.
    let (off, len) = section_payload(&bytes, b"NODE");
    bytes[off + len - 1] = 0xAA;
    fix_crc(&mut bytes, b"NODE");
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("padding"), "got: {msg}")
        }
        other => panic!("expected Corrupt(padding), got {other:?}"),
    }
}

#[test]
fn fixed_misaligned_payload_is_typed() {
    // Rebuild the container with one extra byte appended to the TRPL
    // payload: the length is now not a multiple of 8, so the fixed
    // decoder must reject the body as trailing garbage (after the CRC —
    // recomputed by the writer — passes).
    let (_, _, bytes) = sample_fixed_store();
    let c = rdf_store::Container::parse(&bytes).unwrap();
    let header = *c.header();
    let mut w = rdf_store::ContainerWriter::new();
    for (tag, payload) in c.sections() {
        let mut p = payload.to_vec();
        if tag == b"TRPL" {
            p.push(0);
        }
        w.section(*tag, p);
    }
    let mut out = Vec::new();
    w.finish_versioned(&mut out, header.version, header.kind, header.counts)
        .unwrap();
    match StoreReader::from_bytes(out).read_graph() {
        Err(StoreError::Corrupt(_) | StoreError::Truncated { .. }) => {}
        other => panic!("expected typed misalignment error, got {other:?}"),
    }
}

#[test]
fn fixed_count_mismatch_is_typed() {
    let (_, _, mut bytes) = sample_fixed_store();
    // Lower the header triple count: the TRPL preamble count no longer
    // matches what the header claims.
    let triples =
        u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    bytes[24..32].copy_from_slice(&(triples - 1).to_le_bytes());
    match StoreReader::from_bytes(bytes).read_graph() {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("header says"), "got: {msg}")
        }
        other => panic!("expected Corrupt(count mismatch), got {other:?}"),
    }
}
