//! Property suite for the `.rdfb` graph store through its one reader:
//! `load(save(g)) == g` term-for-term for random graphs (blank nodes,
//! escaped / lang-tagged / datatyped literals); byte-identical
//! reconstruction of freshly parsed graphs; deterministic writes; and
//! typed — never panicking — failures on corrupt containers (truncation,
//! bit flips, bad magic, future versions, checksum flips) and on
//! version-1 stores, the retired varint layout. The fixed-width column
//! bodies themselves are exercised by `store_v2_roundtrip.rs`.

mod common;

use common::{arb_rdf_graph, load, reader_of, term_triples};
use proptest::prelude::*;
use rdf_io::{parse_graph, write_graph};
use rdf_model::{RdfGraph, Vocab};
use rdf_store::{graph_to_bytes, Layout, LoadMode, StoreError};

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
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `load(save(g)) == g` term-for-term, blank names included.
    #[test]
    fn save_load_is_identity((vocab, g) in arb_rdf_graph()) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        let (v2, g2) = load(&bytes).unwrap();
        prop_assert_eq!(g2.node_count(), g.node_count());
        prop_assert_eq!(g2.triple_count(), g.triple_count());
        prop_assert_eq!(term_triples(&g2, &v2), term_triples(&g, &vocab));
        for n in g.graph().nodes() {
            prop_assert_eq!(g2.blank_name(n), g.blank_name(n));
        }
    }

    /// `load(save(parse(text)))` reconstructs `parse(text)` *bit-
    /// identically*: same node ids, same label ids, same CSR adjacency,
    /// same blank names and dictionary — not just term equality —
    /// because a fresh parse interns labels densely in first-appearance
    /// order, which is exactly the store's dictionary order. The
    /// canonical export bytes agree too.
    #[test]
    fn store_of_fresh_parse_is_byte_identical((vocab, g) in arb_rdf_graph()) {
        let text = write_graph(&g, &vocab);
        let mut fresh = Vocab::new();
        let parsed = parse_graph(&text, &mut fresh).unwrap();
        let bytes = graph_to_bytes(&fresh, &parsed).unwrap();
        let loaded = load(&bytes).unwrap();
        assert_loads_identical(&loaded, &(fresh, parsed))?;
        prop_assert_eq!(write_graph(&loaded.1, &loaded.0), text);
    }

    /// Saving is deterministic: identical graphs produce identical bytes.
    #[test]
    fn save_is_deterministic((vocab, g) in arb_rdf_graph()) {
        let a = graph_to_bytes(&vocab, &g).unwrap();
        let b = graph_to_bytes(&vocab, &g).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Every prefix-truncation of a valid container fails with a typed
    /// error — no panic, no silent partial graph.
    #[test]
    fn truncations_fail_loudly((vocab, g) in arb_rdf_graph()) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        // Sampling every 7th cut keeps the case fast while still
        // touching header, frame and payload territory.
        for cut in (0..bytes.len()).step_by(7) {
            let r = reader_of(&bytes[..cut]);
            prop_assert!(r.read_graph().is_err(), "cut at {} must fail", cut);
        }
    }

    /// Any single flipped payload bit is caught (by a checksum mismatch
    /// or a later structural check) — sampled across the file.
    #[test]
    fn bit_flips_are_detected((vocab, g) in arb_rdf_graph()) {
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        for i in (0..bytes.len()).step_by(11) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            // Must not panic; almost always errors. A flip may cancel
            // out only by breaking a count that a structural check
            // catches — either way, no silent success with different
            // content.
            if let Ok((v2, g2)) = load(&corrupt) {
                // The only acceptable "success" is content identity
                // (impossible for a real flip, but assert it anyway).
                prop_assert_eq!(
                    term_triples(&g2, &v2),
                    term_triples(&g, &vocab)
                );
            }
        }
    }
}

/// A hand-built container exercising each typed corruption error.
fn sample_store() -> (Vocab, RdfGraph, Vec<u8>) {
    let mut vocab = Vocab::new();
    let g = {
        let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
        b.uub("ss", "address", "b1");
        b.bul("b1", "zip", "EH8 9AB");
        b.bul("b1", "city", "Edinburgh");
        b.uul("ss", "name", "Sławek\nStaworko@pl");
        b.uuu("ss", "employer", "ed-uni");
        b.finish()
    };
    let bytes = graph_to_bytes(&vocab, &g).unwrap();
    (vocab, g, bytes)
}

#[test]
fn bad_magic_is_typed() {
    let (_, _, mut bytes) = sample_store();
    bytes[..4].copy_from_slice(b"NOPE");
    match load(&bytes) {
        Err(StoreError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_typed() {
    let (_, _, mut bytes) = sample_store();
    bytes[4] = 3;
    bytes[5] = 0;
    match load(&bytes) {
        Err(StoreError::UnsupportedVersion { found: 3, supported }) => {
            assert_eq!(supported, rdf_store::MAX_FORMAT_VERSION)
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn version_flag_is_the_layout_authority() {
    // Stamping version 1 onto fixed bytes must fail with the typed
    // retired-layout error in every reader entry point, never decode:
    // readers resolve layout from the header flag alone.
    let (_, _, mut bytes) = sample_store();
    bytes[4] = rdf_store::FORMAT_VERSION as u8;
    bytes[5] = 0;
    let reader = reader_of(&bytes);
    for got in [
        reader.read_graph().map(drop),
        reader.read_view().map(drop),
        reader.info().map(drop),
    ] {
        match got {
            Err(StoreError::RetiredLayout { version: 1 }) => {}
            other => panic!("expected RetiredLayout, got {other:?}"),
        }
    }
}

/// A version-1 graph store exactly as the retired varint writer laid
/// it out (`tests/data/varint-v1.rdfb`, the three-triple graph below)
/// is refused by every reader entry point with a typed error that
/// says what to do; it never panics and never decodes.
#[test]
fn varint_store_is_retired_with_a_typed_error() {
    const V1: &[u8] = include_bytes!("data/varint-v1.rdfb");
    const TEXT: &str =
        "<u:s> <u:p> <u:o> .\n<u:s> <u:q> _:b1 .\n_:b1 <u:p> \"lit\" .\n";
    let header = rdf_store::Container::parse_header(V1);
    assert!(matches!(header, Err(StoreError::RetiredLayout { version: 1 })));
    let reader = reader_of(V1);
    for got in [
        reader.read_graph().map(drop),
        reader.read_view().map(drop),
        reader.info().map(drop),
    ] {
        let err = got.expect_err("a version-1 graph store must not load");
        assert!(matches!(err, StoreError::RetiredLayout { version: 1 }));
        assert!(err.to_string().contains("rdf import"), "got: {err}");
    }
    // Re-importing the same text gives a fixed store that loads.
    let mut out = Vec::new();
    rdf_store::import_ntriples(TEXT.as_bytes(), &mut out).unwrap();
    let (_, g) = load(&out).unwrap();
    assert_eq!((g.node_count(), g.triple_count()), (6, 3));
    // The pinned layout-taking import refuses varint before reading.
    let mut sink = Vec::new();
    match rdf_store::import_ntriples_layout(
        TEXT.as_bytes(),
        &mut sink,
        Layout::Varint,
    ) {
        Err(rdf_store::ImportError::Store(StoreError::RetiredLayout {
            version: 1,
        })) => assert!(sink.is_empty()),
        other => panic!("expected RetiredLayout, got {:?}", other.map(drop)),
    }
    let mut fixed = Vec::new();
    rdf_store::import_ntriples_layout(
        TEXT.as_bytes(),
        &mut fixed,
        Layout::Fixed,
    )
    .unwrap();
    assert_eq!(fixed, out);
}

#[test]
fn flipped_checksum_byte_is_typed() {
    let (_, _, mut bytes) = sample_store();
    // First section's stored checksum sits at header + tag + len.
    let crc_at = rdf_store::container::HEADER_LEN + 4 + 8;
    bytes[crc_at] ^= 0xff;
    match load(&bytes) {
        Err(StoreError::ChecksumMismatch { section, .. }) => {
            assert_eq!(&section, b"DICT")
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn flipped_payload_byte_is_typed() {
    let (_, _, mut bytes) = sample_store();
    let payload_at = rdf_store::container::HEADER_LEN
        + rdf_store::container::SECTION_OVERHEAD
        + 3;
    bytes[payload_at] ^= 0x55;
    match load(&bytes) {
        Err(StoreError::ChecksumMismatch { .. }) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_header_is_typed() {
    let (_, _, bytes) = sample_store();
    match load(&bytes[..10]) {
        Err(StoreError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn archive_kind_rejected_by_graph_loader() {
    let (_, _, mut bytes) = sample_store();
    // Patch the content-kind byte to ARCHIVE and fix nothing else; the
    // kind check fires before any section is interpreted.
    bytes[6] = rdf_store::KIND_ARCHIVE;
    match load(&bytes) {
        Err(StoreError::WrongContentKind { found, expected }) => {
            assert_eq!(found, rdf_store::KIND_ARCHIVE);
            assert_eq!(expected, rdf_store::KIND_GRAPH);
        }
        other => panic!("expected WrongContentKind, got {other:?}"),
    }
}

#[test]
fn empty_graph_round_trips() {
    let vocab = Vocab::new();
    let g = rdf_model::RdfGraphBuilder::new(&mut Vocab::new()).finish();
    let bytes = graph_to_bytes(&vocab, &g).unwrap();
    let (v2, g2) = load(&bytes).unwrap();
    assert_eq!(g2.node_count(), 0);
    assert_eq!(g2.triple_count(), 0);
    assert_eq!(v2.len(), 1);
}

#[test]
fn info_reports_header_and_sections() {
    let (_, g, bytes) = sample_store();
    let info = reader_of(&bytes).info().unwrap();
    assert_eq!(info.header.kind, rdf_store::KIND_GRAPH);
    assert_eq!(info.header.counts[1], g.node_count() as u64);
    assert_eq!(info.header.counts[2], g.triple_count() as u64);
    assert_eq!(info.file_bytes, bytes.len());
    let tags: Vec<&str> =
        info.sections.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(tags, ["DICT", "NODE", "TRPL", "BNAM"]);
    assert_eq!(info.layout, Layout::Fixed);
    assert_eq!(info.mode, Some(LoadMode::Widen));
    assert_eq!(info.trpl_width, Some(1));
}
