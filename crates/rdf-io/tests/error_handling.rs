//! Table-driven error-handling tests for the N-Triples parser: every
//! malformed input must fail with a located, descriptive error — never
//! panic, never mis-parse.

mod common;

use rdf_io::{parse_graph, parse_triples};
use rdf_model::Vocab;

/// Malformed one-line documents and a word their error must mention.
const MALFORMED: &[(&str, &str)] = &[
    ("<u:s> <u:p>", "expected term"),
    ("<u:s> <u:p> <u:o>", "expected '.'"),
    ("<u:s <u:p> <u:o> .", "IRI"),
    ("<u:s> <u:p> \"unterminated .", "unterminated literal"),
    ("<u:s> <u:p> \"bad\\escape\" .", "invalid string escape"),
    ("<u:s> <u:p> \"x\"@ .", "empty language tag"),
    ("<u:s> <u:p> _: .", "empty blank node label"),
    ("<u:s> <u:p> <u:o> . trailing", "trailing content"),
    ("<u:s> <u:p> \"\\uZZZZ\" .", "invalid hex digit"),
    ("<u:s> <u:p> \"\\uD800\" .", "invalid code point"),
    ("nonsense line", "expected term"),
    ("<u:s> <u:p> <u:o> extra .", "expected '.'"),
];

/// Documents that fail on a later line or on an RDF convention.
const MALFORMED_DOCS: &[&str] = &[
    "<u:s> <u:p> <u:o> .\n# fine\n<u:s> <u:p> broken .\n",
    "<u:s> <u:p> <u:o> .\n\"lit\" <u:p> <u:o> .\n",
    "\"literal\" <u:p> <u:o> .",
    "<u:s> \"lit\" <u:o> .",
    "<u:s> _:b <u:o> .",
];

#[test]
fn malformed_inputs_report_errors() {
    for (input, needle) in MALFORMED {
        let err = parse_triples(input)
            .expect_err(&format!("input {input:?} must fail"));
        assert!(
            err.message.contains(needle),
            "input {input:?}: error {:?} should mention {needle:?}",
            err.message
        );
        assert_eq!(err.line, 1);
        assert!(err.column >= 1);
    }
}

#[test]
fn error_line_numbers_count_from_one() {
    let doc = "<u:s> <u:p> <u:o> .\n# fine\n<u:s> <u:p> broken .\n";
    let err = parse_triples(doc).unwrap_err();
    assert_eq!(err.line, 3);
}

#[test]
fn error_byte_offsets_locate_the_failure() {
    // The bad term starts 12 bytes into line 3; the two preceding lines
    // contribute 20 + 7 bytes (including newlines).
    let doc = "<u:s> <u:p> <u:o> .\n# fine\n<u:s> <u:p> broken .\n";
    let err = parse_triples(doc).unwrap_err();
    assert_eq!(err.byte, 20 + 7 + 12);
    assert_eq!(err.column, 13);
    assert_eq!(&doc[err.byte..err.byte + 6], "broken");
    // First-line errors: byte offset equals column - 1.
    let err = parse_triples("<u:s> <u:p> .").unwrap_err();
    assert_eq!(err.byte, err.column - 1);
    // Display mentions the offset.
    assert!(err.to_string().contains("byte"));
}

#[test]
fn streaming_reader_matches_in_memory_parse() {
    let doc = "<u:s> <u:p> \"v1\" .\r\n<u:s> <u:q> _:b .\n_:b <u:r> \"x\"@en .\n";
    let mut v1 = rdf_model::Vocab::new();
    let g1 = parse_graph(doc, &mut v1).unwrap();
    let mut v2 = rdf_model::Vocab::new();
    // A BufReader with a pathologically small buffer hands out a few
    // bytes per read; the graph must be identical.
    let reader = std::io::BufReader::with_capacity(
        4,
        std::io::Cursor::new(doc.as_bytes()),
    );
    let g2 = rdf_io::parse_graph_reader(reader, &mut v2).unwrap();
    assert_eq!(g1.triple_count(), g2.triple_count());
    assert_eq!(g1.node_count(), g2.node_count());
    assert_eq!(rdf_io::write_graph(&g1, &v1), rdf_io::write_graph(&g2, &v2));
}

#[test]
fn streaming_reader_reports_convention_violations_with_position() {
    let doc = "<u:s> <u:p> <u:o> .\n\"lit\" <u:p> <u:o> .\n";
    let mut v = rdf_model::Vocab::new();
    let err = rdf_io::parse_graph_reader(doc.as_bytes(), &mut v).unwrap_err();
    match err {
        rdf_io::ReadError::Parse(p) => {
            assert_eq!(p.line, 2);
            assert_eq!(p.byte, 20);
            assert!(p.message.contains("subject"));
        }
        rdf_io::ReadError::Io(e) => panic!("unexpected io error: {e}"),
    }
}

#[test]
fn rdf_convention_violations_are_reported() {
    let mut v = Vocab::new();
    for (doc, needle) in [
        ("\"literal\" <u:p> <u:o> .", "subject"),
        ("<u:s> \"lit\" <u:o> .", "predicate"),
        ("<u:s> _:b <u:o> .", "predicate"),
    ] {
        let err = parse_graph(doc, &mut v)
            .expect_err(&format!("{doc:?} must violate RDF conventions"));
        assert!(
            err.message.contains(needle),
            "{doc:?}: {:?} should mention {needle:?}",
            err.message
        );
    }
}

#[test]
fn empty_and_comment_only_documents_parse() {
    assert!(parse_triples("").unwrap().is_empty());
    assert!(parse_triples("\n\n# only comments\n  \n").unwrap().is_empty());
}

#[test]
fn whitespace_tolerance() {
    let doc = "  <u:s>\t\t<u:p>   \"spaced\"  .  # comment\n";
    let ts = parse_triples(doc).unwrap();
    assert_eq!(ts.len(), 1);
}

#[test]
fn file_round_trip() {
    let mut vocab = Vocab::new();
    let g = rdf_io::parse_graph(
        "<u:s> <u:p> \"v1\" .\n<u:s> <u:q> _:b .\n_:b <u:r> \"v2\"@en .\n",
        &mut vocab,
    )
    .unwrap();
    let dir = std::env::temp_dir().join("rdf_io_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.nt");
    rdf_io::save_file(&path, &g, &vocab).unwrap();
    let mut fresh = Vocab::new();
    let loaded = rdf_io::load_file(&path, &mut fresh).unwrap();
    assert_eq!(loaded.triple_count(), g.triple_count());
    assert_eq!(loaded.node_count(), g.node_count());
    std::fs::remove_file(&path).ok();
}

#[test]
fn load_missing_file_errors() {
    let mut vocab = Vocab::new();
    assert!(rdf_io::load_file("/nonexistent/nope.nt", &mut vocab).is_err());
}

#[test]
fn streamed_errors_match_in_memory_errors() {
    let one_line = MALFORMED.iter().map(|(doc, _)| *doc);
    let docs = one_line.chain(MALFORMED_DOCS.iter().copied());
    for (seed, doc) in docs.enumerate() {
        common::assert_streaming_matches(doc, seed as u64);
        // The same line after good lines and with a CRLF ending.
        common::assert_streaming_matches(
            &format!("<u:a> <u:b> <u:c> .\r\n# note\r\n{doc}\r\n"),
            seed as u64,
        );
    }
}

#[test]
fn invalid_utf8_is_located() {
    let doc = b"<u:s> <u:p> <u:o> .\n<u:s> <u:p> \"a\xffb\" .\n";
    let bad = doc.iter().position(|&b| b == 0xff).unwrap();
    let mut v = Vocab::new();
    match rdf_io::parse_graph_reader(&doc[..], &mut v).unwrap_err() {
        rdf_io::ReadError::Parse(p) => {
            assert_eq!(p.line, 2);
            assert_eq!(p.byte, bad);
            assert_eq!(p.column, bad - 20 + 1);
            assert!(p.message.contains("UTF-8"), "{}", p.message);
        }
        rdf_io::ReadError::Io(e) => panic!("unexpected io error: {e}"),
    }
    // Errors surface in document order: a syntax error on an earlier
    // line wins over a bad byte later in the same block.
    let doc = b"<u:s> <u:p> broken .\n# \xff\n";
    match rdf_io::parse_graph_reader(&doc[..], &mut v).unwrap_err() {
        rdf_io::ReadError::Parse(p) => {
            assert_eq!(p.line, 1);
            assert!(p.message.contains("expected term"));
        }
        rdf_io::ReadError::Io(e) => panic!("unexpected io error: {e}"),
    }
    // A truncated sequence at the very end of the input is reported too.
    let doc = b"<u:s> <u:p> \"\xc3";
    match rdf_io::parse_graph_reader(&doc[..], &mut v).unwrap_err() {
        rdf_io::ReadError::Parse(p) => {
            assert_eq!((p.line, p.column, p.byte), (1, 14, 13));
        }
        rdf_io::ReadError::Io(e) => panic!("unexpected io error: {e}"),
    }
}
