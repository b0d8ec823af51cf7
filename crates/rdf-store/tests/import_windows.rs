//! `rdf import`'s store writer against the graph writer: the import
//! encodes the store from the parser's sorted parts a window at a time
//! (no CSR, no whole section), and must write the very bytes
//! `write_graph(parse_graph(text))` writes — for random documents, for
//! the empty one, and for one whose `DICT` and `TRPL` each span several
//! windows. A sink that fails mid-section is a typed store error.

use proptest::prelude::*;
use rdf_io::parse_graph;
use rdf_model::{RdfGraph, Vocab};
use rdf_store::container::SECTION_WINDOW;
use rdf_store::{
    graph_to_bytes, import_ntriples, BorrowedStoreReader, Container,
    ImportError, Imported, StoreBuf, StoreError,
};

/// Literal bodies with escapes, as they appear between the quotes.
const LITERALS: &[&str] = &[
    "plain",
    "",
    "tab\\there",
    "say \\\"hi\\\"",
    "back\\\\slash",
    "two\\nlines",
    "cr\\rhere",
    "caf\\u00E9",
    "caf\u{e9}",
    "\\U0001F600 grin",
    "😀",
    "a b",
];

/// A random N-Triples document of `m` lines: URI and blank subjects,
/// URI, blank and literal objects, literals with escapes, `@lang` and
/// `^^datatype` suffixes, repeated triples, comment lines, trailing
/// comments, empty and blank lines, and CRLF line ends.
fn document(m: usize, seed: u64) -> String {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut lines: Vec<String> = Vec::new();
    let mut doc = String::new();
    for _ in 0..m {
        let line = match next() % 9 {
            0 => format!("# comment {}", next() % 3),
            1 => " \t".repeat((next() % 2) as usize),
            2 if !lines.is_empty() => {
                lines[(next() % lines.len() as u64) as usize].clone()
            }
            _ => {
                let s = match next() % 3 {
                    0 => format!("_:b{}", next() % 5),
                    _ => format!("<http://e.org/s{}>", next() % 6),
                };
                let p = format!("<http://e.org/p{}>", next() % 4);
                let lit = LITERALS[(next() % LITERALS.len() as u64) as usize];
                let o = match next() % 6 {
                    0 => format!("<http://e.org/o{}>", next() % 8),
                    1 => format!("_:b{}", next() % 5),
                    2 => format!("\"{lit}\""),
                    3 => {
                        let tag = ["en", "en-GB"][(next() % 2) as usize];
                        format!("\"{lit}\"@{tag}")
                    }
                    4 => format!(
                        "\"{}\"^^<http://www.w3.org/2001/XMLSchema#integer>",
                        next() % 9
                    ),
                    _ => format!("\"{lit}\"^^<http://e.org/dt{}>", next() % 2),
                };
                let tail = ["", " # trailing"][(next() % 4 == 0) as usize];
                let line = format!("{s} {p} {o} .{tail}");
                lines.push(line.clone());
                line
            }
        };
        doc.push_str(&line);
        doc.push_str(["\n", "\r\n"][(next() % 5 == 0) as usize]);
    }
    doc
}

/// The store `write_graph` writes for `text` parsed, with the parsed
/// graph and its vocabulary.
fn reference(text: &str) -> (Vec<u8>, Vocab, RdfGraph) {
    let mut vocab = Vocab::new();
    let g = parse_graph(text, &mut vocab).expect("the document parses");
    (graph_to_bytes(&vocab, &g).unwrap(), vocab, g)
}

/// Import `text`, asserting it writes `reference`'s bytes, that they
/// parse as a container, and that it returns the parsed graph's counts.
fn assert_import_matches(text: &str) -> Vec<u8> {
    let (expected, vocab, g) = reference(text);
    let mut got = Vec::new();
    let imported = import_ntriples(text.as_bytes(), &mut got).unwrap();
    assert!(got == expected, "import bytes differ for:\n{text}");
    Container::parse(&got).expect("the import writes a valid container");
    let counts = Imported {
        nodes: g.node_count(),
        triples: g.triple_count(),
        labels: vocab.len(),
    };
    assert_eq!(imported, counts);
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `import(text)` is byte-identical to `write_graph(parse(text))`.
    #[test]
    fn import_bytes_equal_write_graph_of_parse(
        m in 0usize..48,
        seed in any::<u64>(),
    ) {
        assert_import_matches(&document(m, seed));
    }
}

#[test]
fn empty_document_imports_to_the_empty_store() {
    for text in ["", "\n", "# only a comment\n\n"] {
        let bytes = assert_import_matches(text);
        let header = Container::parse_header(&bytes).unwrap();
        assert_eq!(header.counts, [1, 0, 0], "{text:?}");
    }
}

/// Column widths are chosen from the largest id: documents whose node
/// and label ids cross the 1- and 2-byte limits only through their
/// objects, and a literal longer than a window, import to the bytes
/// `write_graph` writes.
#[test]
fn width_limits_and_long_literals_import_to_write_graph_bytes() {
    for n in [253, 254, 255, 300, 65_533, 65_534, 65_600] {
        let text: String = (0..n)
            .map(|i| format!("<u:s> <u:p> \"v{i}\" .\n"))
            .collect();
        assert_import_matches(&text);
    }
    let long = "x".repeat(SECTION_WINDOW + SECTION_WINDOW / 2);
    assert_import_matches(&format!("<u:s> <u:p> \"{long}\" .\n"));
}

/// A document of `n` triples whose `DICT` and `TRPL` outgrow a window:
/// every triple has its own long literal, and ids need 4 bytes.
fn large_document(n: usize) -> String {
    let mut doc = String::new();
    for i in 0..n {
        let s = i / 2;
        let line = match i % 10 {
            0 => format!("_:b{s} <http://e.org/p> <http://e.org/s{s}> .\n"),
            _ => format!(
                "<http://e.org/s{s}> <http://e.org/p{}> \
                 \"literal number {i}, long enough to fill windows\" .\n",
                i % 3
            ),
        };
        doc.push_str(&line);
    }
    doc
}

/// A `DICT` of three windows or more and a `TRPL` of two or more import
/// to the same bytes as `write_graph`, and load back through
/// `read_graph` with the parsed graph's terms.
#[test]
fn sections_spanning_windows_import_to_write_graph_bytes() {
    let text = large_document(100_000);
    let bytes = assert_import_matches(&text);
    let c = Container::parse(&bytes).unwrap();
    let dict = c.section(*b"DICT").unwrap().len();
    let trpl = c.section(*b"TRPL").unwrap().len();
    assert!(dict > 2 * SECTION_WINDOW, "DICT of {dict} bytes");
    assert!(trpl > SECTION_WINDOW, "TRPL of {trpl} bytes");

    let (_, vocab, g) = reference(&text);
    let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
    let (v2, g2) = reader.read_graph().unwrap();
    assert_eq!(g2.node_count(), g.node_count());
    assert!(g2.graph().triples().eq(g.graph().triples()));
    for n in g.graph().nodes() {
        let (got, want) = (g2.graph().label(n), g.graph().label(n));
        assert_eq!(v2.resolve(got), vocab.resolve(want));
        assert_eq!(g2.blank_name(n), g.blank_name(n));
    }
}

/// A sink that accepts `room` bytes, then fails every write.
struct FailAfter {
    room: usize,
    written: Vec<u8>,
}

impl std::io::Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.written.len() + buf.len() > self.room {
            return Err(std::io::Error::other("disk full"));
        }
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A sink that fails part way through a section — within the first
/// window of `DICT`, between windows, and inside `TRPL` — fails the
/// import with a typed `ImportError::Store` carrying the I/O error.
#[test]
fn sink_failing_mid_section_is_a_typed_store_error() {
    let text = large_document(100_000);
    let full = assert_import_matches(&text).len();
    for room in [40, 1000, SECTION_WINDOW + 100, full - 1000] {
        let mut sink = FailAfter {
            room,
            written: Vec::new(),
        };
        match import_ntriples(text.as_bytes(), &mut sink) {
            Err(ImportError::Store(StoreError::Io(e))) => {
                assert_eq!(e.to_string(), "disk full", "room {room}");
            }
            other => panic!("room {room}: got {:?}", other.map(drop)),
        }
        assert!(sink.written.len() <= room);
    }
}
