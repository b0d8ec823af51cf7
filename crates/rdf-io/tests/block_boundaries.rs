//! Block boundaries cannot change a parse. `parse_graph_reader` reads
//! 1 MiB blocks and cuts each at its last newline; these fixed cases put
//! lines, CRLF pairs, escapes and multi-byte characters across those
//! cuts and across the 1–7 byte reads of a trickling reader, and check
//! the result against the in-memory parse.

mod common;

use common::{assert_streaming_matches, Trickle};
use rdf_model::Vocab;

/// The parser's block size.
const BLOCK: usize = 1 << 20;

/// A line that needs every slow path of the scanner: `\u` escapes in an
/// IRI and a literal, multi-byte characters, a folded language tag and a
/// CRLF ending.
const AWKWARD: &str = "<u:caf\\u00E9> <u:p> \"😀 é\\U0001F600\\t\"@en .\r\n";

#[test]
fn line_longer_than_a_block() {
    let long = "x".repeat(3 * BLOCK);
    let doc = format!("<u:s> <u:p> \"{long}\" .\n<u:s> <u:q> \"end\" .\n");
    assert_streaming_matches(&doc, 1);
    let mut v = Vocab::new();
    let g = rdf_io::parse_graph_reader(Trickle::new(doc.as_bytes(), 2), &mut v).unwrap();
    assert_eq!(g.triple_count(), 2);
    assert!(v.find_literal(&long).is_some());
}

#[test]
fn crlf_line_endings_parse_like_lf() {
    let lf = "<u:s> <u:p> \"v\" .\n<u:s> <u:q> _:b .\n_:b <u:r> \"x\"@en .\n";
    let crlf = lf.replace('\n', "\r\n");
    assert_streaming_matches(&crlf, 3);
    let mut v_lf = Vocab::new();
    let g_lf = rdf_io::parse_graph(lf, &mut v_lf).unwrap();
    let mut v_crlf = Vocab::new();
    let g_crlf = rdf_io::parse_graph_reader(Trickle::new(crlf.as_bytes(), 4), &mut v_crlf).unwrap();
    assert_eq!(
        rdf_io::write_graph(&g_lf, &v_lf),
        rdf_io::write_graph(&g_crlf, &v_crlf)
    );
}

#[test]
fn last_line_without_newline() {
    assert_streaming_matches("<u:s> <u:p> <u:o> .\n<u:s> <u:p> \"last\" .", 5);
    // A lone trailing `\r` is not a line ending; it is trailing content.
    assert_streaming_matches("<u:s> <u:p> <u:o> .\r", 6);
    assert_streaming_matches("<u:s> <u:p> <u:o> .\n# comment, no newline", 7);
}

#[test]
fn multi_byte_characters_straddle_reads() {
    let doc = AWKWARD.repeat(64);
    for seed in 0..32 {
        assert_streaming_matches(&doc, seed);
    }
}

#[test]
fn unicode_escapes_in_iri_and_literal() {
    assert_streaming_matches(AWKWARD, 8);
    let mut v = Vocab::new();
    rdf_io::parse_graph_reader(Trickle::new(AWKWARD.as_bytes(), 9), &mut v).unwrap();
    assert!(v.find_uri("u:café").is_some());
    assert!(v.find_literal("😀 é😀\t@en").is_some());
}

#[test]
fn block_cut_at_every_byte_of_a_line() {
    // Pad with a comment so the block boundary falls on each byte of
    // `AWKWARD` in turn (including inside the emoji, the escapes and
    // between `\r` and `\n`), then break the line after it.
    for at in 0..AWKWARD.len() {
        let pad = BLOCK - at;
        let doc = format!(
            "#{}\n{AWKWARD}<u:s> <u:p> \"tail\" .\n",
            "x".repeat(pad - 2)
        );
        assert_streaming_matches(&doc, at as u64);
    }
}

#[test]
fn errors_after_a_block_boundary_keep_their_position() {
    let pad = "<u:s> <u:p> <u:o> .\n".repeat(BLOCK / 20 + 7);
    for bad in ["<u:s> <u:p> broken .\n", "\"lit\" <u:p> <u:o> .\n"] {
        assert_streaming_matches(&format!("{pad}{bad}"), 10);
    }
}
