//! Every malformed `DICT` is a typed error through every entry point
//! that reads it: the owned decode (`read_graph`), the direct join into
//! a session vocabulary (`read_graph_into`, on a fresh and on a
//! pre-populated session), the view (`read_view`) and the CLI loader
//! (`load_input`, whose message names the file).

use rdf_model::{RdfGraphBuilder, Vocab};
use rdf_obs::Recorder;
use rdf_store::fixed::pad8;
use rdf_store::varint::write_varint;
use rdf_store::{
    graph_to_bytes, BorrowedStoreReader, Container, ContainerWriter,
    StoreBuf, StoreError,
};
use std::path::PathBuf;

/// A three-label store: `<s> <p> <o>`, dictionary ids 1, 2, 3.
fn sample() -> Vec<u8> {
    let mut vocab = Vocab::new();
    let g = {
        let mut b = RdfGraphBuilder::new(&mut vocab);
        b.uuu("s", "p", "o");
        b.finish()
    };
    graph_to_bytes(&vocab, &g).unwrap()
}

/// The sample store with its `DICT` body replaced by `entries` (each a
/// kind tag and raw text bytes; a text of `None` is an entry whose
/// length runs past the body), and the header's label count set to
/// `header_count`.
fn with_dict(entries: &[(u8, Option<&[u8]>)], header_count: u64) -> Vec<u8> {
    let mut dict = Vec::new();
    write_varint(&mut dict, entries.len() as u64 + 1);
    for (tag, text) in entries {
        dict.push(*tag);
        match text {
            Some(t) => {
                write_varint(&mut dict, t.len() as u64);
                dict.extend_from_slice(t);
            }
            None => write_varint(&mut dict, 200),
        }
    }
    pad8(&mut dict);
    let bytes = sample();
    let c = Container::parse(&bytes).unwrap();
    let mut w = ContainerWriter::new();
    for (tag, payload) in c.sections() {
        let body = if tag == b"DICT" { dict.clone() } else { payload.to_vec() };
        w.section(*tag, body);
    }
    let mut counts = c.header().counts;
    counts[0] = header_count;
    let mut out = Vec::new();
    w.finish_versioned(&mut out, c.header().version, c.header().kind, counts)
        .unwrap();
    out
}

/// A session that already holds the sample's label `p`, so the `dup`
/// case repeats a label the session held before the join rather than
/// one the join added.
fn populated() -> Vocab {
    let mut v = Vocab::new();
    v.uri("unrelated");
    v.uri("p");
    v
}

struct Case {
    name: &'static str,
    bytes: Vec<u8>,
    truncated: bool,
}

fn cases() -> Vec<Case> {
    let (s, p, o) = (Some(&b"s"[..]), Some(&b"p"[..]), Some(&b"o"[..]));
    let bad_utf8 = Some(&b"\xff\xfe"[..]);
    let case = |name, entries: &[(u8, Option<&[u8]>)], count, truncated| {
        Case {
            name,
            bytes: with_dict(entries, count),
            truncated,
        }
    };
    vec![
        case("dup", &[(1, s), (1, p), (1, p)], 4, false),
        case("tag", &[(1, s), (7, p), (1, o)], 4, false),
        case("utf8", &[(1, s), (1, bad_utf8), (1, o)], 4, false),
        case("cut", &[(1, s), (1, p), (1, None)], 4, true),
        case("count", &[(1, s), (1, p), (1, o)], 5, false),
    ]
}

fn assert_typed<T: std::fmt::Debug>(
    case: &Case,
    entry: &str,
    got: Result<T, StoreError>,
) {
    match (case.truncated, &got) {
        (false, Err(StoreError::Corrupt(_)))
        | (true, Err(StoreError::Truncated { .. })) => {}
        _ => panic!("{} via {entry}: got {got:?}", case.name),
    }
}

#[test]
fn malformed_dictionaries_are_typed_errors_everywhere() {
    let dir = std::env::temp_dir()
        .join(format!("rdf-cli-dict-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The sample itself loads, so each failure below is the DICT's.
    let valid = with_dict(
        &[(1, Some(b"s")), (1, Some(b"p")), (1, Some(b"o"))],
        4,
    );
    assert_eq!(valid, sample());

    for case in cases() {
        let reader =
            BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&case.bytes));
        let rec = Recorder::disabled();
        assert_typed(&case, "read_graph", reader.read_graph());
        assert_typed(&case, "read_view", reader.read_view());
        for (session, mut vocab) in
            [("fresh", Vocab::new()), ("populated", populated())]
        {
            assert_typed(
                &case,
                &format!("read_graph_into({session})"),
                reader.read_graph_into(&mut vocab, &rec),
            );
        }

        let path: PathBuf = dir.join(format!("{}.rdfb", case.name));
        std::fs::write(&path, &case.bytes).unwrap();
        for mut vocab in [Vocab::new(), populated()] {
            let err = rdf_cli::load_input(&path, &mut vocab).unwrap_err();
            let msg = err.to_string();
            let kind = if case.truncated { "truncated" } else { "corrupt" };
            assert!(
                msg.contains(&format!("{}.rdfb", case.name))
                    && msg.contains(kind),
                "{} via load_input: {msg}",
                case.name
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
