//! Property suite for the fixed-width columns of container version 2,
//! the one graph-store layout: for random graphs `load(save(g)) == g`
//! term-for-term, the owned load and the borrowed (zero-copy) view of
//! the same bytes are **bit-identical** — same dense arrays, same
//! dictionary size, same canonical N-Triples export bytes — and every
//! typed corruption of the column bodies (mid-record truncation, bad
//! width byte, misaligned/unpadded payload, CRC flip, count mismatch,
//! unsorted triples) fails with a typed [`StoreError`], never a panic.
//!
//! The borrowed-reader *lifetime* contract (a view cannot outlive its
//! buffer) is enforced at compile time by the `compile_fail` doctest on
//! [`rdf_store::BorrowedStoreReader`].

mod common;

use common::{arb_rdf_graph, load, reader_of, term_triples};
use proptest::prelude::*;
use rdf_model::{RdfGraph, Vocab};
use rdf_store::{
    container::{HEADER_LEN, SECTION_OVERHEAD},
    graph_to_bytes, StoreError,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `load(save(g))` reconstructs `g` term-for-term; the owned load
    /// and the borrowed view of the same bytes agree column for column;
    /// and the canonical export of the load is the export of `g`. The
    /// varint layout this once also compared against is retired: the
    /// same bytes stamped version 1 are refused with the typed
    /// `RetiredLayout` error by both readers, never decoded.
    #[test]
    fn fixed_load_is_identity_and_matches_varint(
        (vocab, g) in arb_rdf_graph()
    ) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        let owned = load(&bytes).unwrap();

        // Term-level identity with the original graph.
        prop_assert_eq!(
            term_triples(&owned.1, &owned.0),
            term_triples(&g, &vocab)
        );
        prop_assert_eq!(
            rdf_io::write_graph(&owned.1, &owned.0),
            rdf_io::write_graph(&g, &vocab)
        );

        // The borrowed (zero-copy) view agrees with the owned load.
        let reader = reader_of(&bytes);
        let (bv, view) = reader.read_view().unwrap();
        prop_assert_eq!(view.labels(), owned.1.graph().labels_raw());
        let (vc, gc) = (view.out_columns(), owned.1.graph().out_columns());
        prop_assert_eq!(vc.offsets(), gc.offsets());
        prop_assert_eq!(vc.preds(), gc.preds());
        prop_assert_eq!(vc.objs(), gc.objs());
        prop_assert_eq!(bv.len(), owned.0.len());

        // A version-1 stamp on the same bytes is the retired layout.
        let mut v1 = bytes.clone();
        v1[4..6].copy_from_slice(&rdf_store::FORMAT_VERSION.to_le_bytes());
        let reader = reader_of(&v1);
        for got in [reader.read_graph().map(drop), reader.read_view().map(drop)]
        {
            let retired =
                matches!(got, Err(StoreError::RetiredLayout { version: 1 }));
            prop_assert!(retired, "expected RetiredLayout, got {:?}", got);
        }
    }

    /// Fixed-layout writes are deterministic, and every graph store is
    /// stamped container version 2.
    #[test]
    fn fixed_save_is_deterministic((vocab, g) in arb_rdf_graph()) {
        let a = graph_to_bytes(&vocab, &g).unwrap();
        let b = graph_to_bytes(&vocab, &g).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(
            u16::from_le_bytes([a[4], a[5]]),
            rdf_store::FORMAT_VERSION_FIXED
        );
    }

    /// Every prefix-truncation of a fixed-layout store — including cuts
    /// landing mid-record inside the fixed columns — fails with a typed
    /// error from the borrowed view as well as the owned load, never a
    /// panic.
    #[test]
    fn fixed_truncations_fail_loudly((vocab, g) in arb_rdf_graph()) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        for cut in (0..bytes.len()).step_by(7) {
            let r = reader_of(&bytes[..cut]);
            prop_assert!(r.read_view().is_err(), "cut at {} must fail", cut);
            prop_assert!(r.read_graph().is_err(), "cut at {} must fail", cut);
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
    let bytes = graph_to_bytes(&vocab, &g).unwrap();
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
    match load(&bytes) {
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
    match load(&bytes) {
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
    match load(&bytes) {
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
    match load(&out) {
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
    match load(&bytes) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("header says"), "got: {msg}")
        }
        other => panic!("expected Corrupt(count mismatch), got {other:?}"),
    }
}

#[test]
fn unsorted_triples_are_typed() {
    // Swap the first two subject ids inside the TRPL columns (and fix
    // the CRC): the columns still parse, but the on-disk order is
    // broken, which both readers refuse.
    let (_, _, mut bytes) = sample_fixed_store();
    let (off, _) = section_payload(&bytes, b"TRPL");
    let width = bytes[off + 8] as usize;
    assert_eq!(width, 1);
    let col = off + 16;
    let (a, b) = (bytes[col], bytes[col + 3]);
    assert!(a < b, "sample needs distinct first and last subjects");
    bytes.swap(col, col + 3);
    fix_crc(&mut bytes, b"TRPL");
    match load(&bytes) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("ascending"), "got: {msg}")
        }
        other => panic!("expected Corrupt(ascending), got {other:?}"),
    }
    let reader = reader_of(&bytes);
    assert!(matches!(reader.read_view(), Err(StoreError::Corrupt(_))));
}
