//! Every malformed `DICT` is a typed error through every entry point
//! that reads it: the owned decode (`read_graph`), the direct join into
//! a session vocabulary (`read_graph_into`, on a fresh and on a
//! pre-populated session), the view (`read_view`), the CLI loader
//! (`load_input`), `rdf align`, which loads both inputs straight into
//! their union, and `rdf export` (the CLI's messages name the file), and
//! the session load's merge of both inputs' labels, on a store/store
//! and an N-Triples/store pair. Each body is forged in hash
//! order, `(label_hash, kind, text)`, up to its one defect, so it
//! reaches the check it was written for; entries out of that order —
//! descending, repeated, or tied on the hash in the wrong kind or text
//! order — are `Corrupt` too. A `BNAM` or `TRPL` defect in a store
//! with valid checksums is refused on the union path too, and so is a
//! `NODE` label id beyond the dictionary on every path, `rdf info
//! --bisim` included, which reads only the `DICT` entry count. A store
//! whose triple breaks an RDF convention the parser enforces (a literal
//! subject, a blank or literal predicate), written with a correctly
//! ordered and checksummed `DICT`, is refused by every load that knows
//! label kinds. A store large enough that its `DICT`, `NODE` and `TRPL`
//! walks each take several release windows is refused at the record of
//! a defect placed at the start of its second `TRPL` window.

use rdf_align::Threads;
use rdf_cli::pipeline::Input;
use rdf_cli::Session;
use rdf_model::{
    label_hash, GraphBuilder, LabelKind, RdfGraph, RdfGraphBuilder,
    Vocab,
};
use rdf_obs::Recorder;
use rdf_store::fixed::{pad8, parse_fixed_body, FIXED_PREAMBLE};
use rdf_store::mmap::RELEASE_WINDOW;
use rdf_store::varint::write_varint;
use rdf_store::{
    graph_to_bytes, BorrowedStoreReader, Container, ContainerWriter,
    StoreBuf, StoreError,
};
use std::path::{Path, PathBuf};
use std::process::Command;

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

/// One forged `DICT` entry: a kind tag and raw text bytes, or `None`
/// for a text whose length runs past the body.
type Entry<'a> = (u8, Option<&'a [u8]>);

/// The sample store with its `DICT` body replaced by `entries`, and the
/// header's label count set to `header_count`.
fn with_dict(entries: &[Entry<'_>], header_count: u64) -> Vec<u8> {
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
    reframe(&sample(), b"DICT", &dict, Some(header_count))
}

/// The store order of an entry that has one: a URI or literal tag and
/// UTF-8 text.
fn order_key(&(tag, text): &Entry<'_>) -> Option<(u64, LabelKind, String)> {
    let kind = match tag {
        1 => LabelKind::Uri,
        2 => LabelKind::Literal,
        _ => return None,
    };
    let text = std::str::from_utf8(text?).ok()?;
    Some((label_hash(kind, text), kind, text.to_owned()))
}

/// `entries` with every well-formed entry in hash order; a malformed
/// one (bad tag, bad UTF-8, cut short) keeps its position.
fn hash_ordered<'a>(entries: &[Entry<'a>]) -> Vec<Entry<'a>> {
    let mut good: Vec<Entry<'a>> =
        entries.iter().copied().filter(|e| order_key(e).is_some()).collect();
    good.sort_by_key(|e| order_key(e));
    let mut good = good.into_iter();
    entries
        .iter()
        .map(|e| match order_key(e) {
            Some(_) => good.next().unwrap(),
            None => *e,
        })
        .collect()
}

/// The folded multiply of [`label_hash`].
fn fold(a: u64) -> u64 {
    let p = u128::from(a) * u128::from(0x9e37_79b9_7f4a_7c15u64);
    p as u64 ^ (p >> 64) as u64
}

/// Two distinct 16-byte ASCII URI texts with equal label hashes, in
/// ascending text order. Both take the same seed; the second word of
/// the second text is its first's state difference xored into the
/// first text's second word, so both reach the same state after two
/// words. A prefix is searched for a difference whose bytes are all
/// ASCII.
fn equal_hash_uris() -> (String, String) {
    let seed = 16u64 << 8;
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
    let (a1, a2) = (word(b"http://a"), word(b"/label00"));
    let state = fold(seed ^ a1);
    let (b1, d) = (b'0'..=b'z')
        .flat_map(|x| (b'0'..=b'z').map(move |y| [x, y]))
        .map(|[x, y]| [b'h', b't', b't', b'p', b':', b'/', x, y])
        .map(|b1| (word(&b1), fold(seed ^ word(&b1)) ^ state))
        .find(|&(b1, d)| b1 != a1 && d & 0x8080_8080_8080_8080 == 0)
        .expect("an ASCII state difference");
    let text = |w1: u64, w2: u64| {
        let bytes = [w1.to_le_bytes(), w2.to_le_bytes()].concat();
        String::from_utf8(bytes).unwrap()
    };
    let (a, b) = (text(a1, a2), text(b1, a2 ^ d));
    assert_eq!(label_hash(LabelKind::Uri, &a), label_hash(LabelKind::Uri, &b));
    if a < b { (a, b) } else { (b, a) }
}

/// `bytes` re-framed with valid checksums, section `tag` replaced by
/// `body`, and the header's label count replaced when `labels` is set.
fn reframe(
    bytes: &[u8],
    tag: &[u8; 4],
    body: &[u8],
    labels: Option<u64>,
) -> Vec<u8> {
    let c = Container::parse(bytes).unwrap();
    let mut w = ContainerWriter::new();
    for (t, payload) in c.sections() {
        let section = if t == tag { body.to_vec() } else { payload.to_vec() };
        w.section(*t, section);
    }
    let mut counts = c.header().counts;
    if let Some(labels) = labels {
        counts[0] = labels;
    }
    let mut out = Vec::new();
    w.finish_versioned(&mut out, c.header().version, c.header().kind, counts)
        .unwrap();
    out
}

/// A fixed `TRPL` body with the records of every column in reverse
/// order, so its triples descend.
fn reversed_records(body: &[u8]) -> Vec<u8> {
    let fb = parse_fixed_body(body, 3, None, "TRPL").unwrap();
    let (width, len) = (fb.width as usize, fb.col_len);
    let mut out = body.to_vec();
    for c in 0..3 {
        let start = FIXED_PREAMBLE + c * fb.col_stride;
        let column = &mut out[start..start + len];
        let records: Vec<u8> =
            column.chunks(width).rev().flatten().copied().collect();
        column.copy_from_slice(&records);
    }
    out
}

/// The CLI's error for `rdf align <path> <path>`.
fn align_error(path: &Path) -> String {
    match rdf_cli::align(path, path, "hybrid", None, Threads::Fixed(1)) {
        Ok(_) => panic!("{} aligned", path.display()),
        Err(e) => e.to_string(),
    }
}

/// The error of a session load (the label merge, then the appends) of
/// `source` and `target`, with and without texts.
fn session_errors(source: &Path, target: &Path) -> Vec<String> {
    [false, true]
        .map(|texts| {
            let inputs = (Input::open(source), Input::open(target));
            let rec = Recorder::disabled();
            match inputs {
                (Ok(s), Ok(t)) => match Session::load(s, t, texts, &rec) {
                    Ok(_) => panic!("{} loaded", source.display()),
                    Err(e) => e.to_string(),
                },
                (Err(e), _) | (_, Err(e)) => e.to_string(),
            }
        })
        .to_vec()
}

/// A one-line N-Triples file that loads.
fn good_text(dir: &Path) -> PathBuf {
    let path = dir.join("good.nt");
    std::fs::write(&path, "<a> <b> <c> .\n").unwrap();
    path
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
    /// What a `Corrupt` message must say: which check refused it.
    says: &'static str,
}

fn cases() -> Vec<Case> {
    let (s, p, o) = (Some(&b"s"[..]), Some(&b"p"[..]), Some(&b"o"[..]));
    let bad_utf8 = Some(&b"\xff\xfe"[..]);
    let case = |name, entries: &[Entry<'_>], count, truncated, says| Case {
        name,
        bytes: with_dict(&hash_ordered(entries), count),
        truncated,
        says,
    };
    let mut descending = hash_ordered(&[(1, s), (1, p), (1, o)]);
    descending.reverse();
    // Equal hashes: a URI and a literal whose first words differ by
    // exactly the kind seed, and two URIs (see `equal_hash_uris`). In
    // hash order the URI and the smaller text come first; swap each.
    let kind_tie = [
        (1, Some(&b"aaaaaaaabbbbbbbb"[..])),
        (2, Some(&b"`aaaaaaabbbbbbbb"[..])),
    ];
    let (lo, hi) = equal_hash_uris();
    let text_tie = [(1, Some(lo.as_bytes())), (1, Some(hi.as_bytes()))];
    let swapped = |pair: [Entry<'_>; 2]| {
        let mut entries = hash_ordered(&[pair[0], pair[1], (1, o)]);
        let at = entries.iter().position(|e| *e == pair[0]).unwrap();
        assert_eq!(entries[at + 1], pair[1], "a tie sorts adjacent");
        entries.swap(at, at + 1);
        with_dict(&entries, 4)
    };
    let raw = |name, bytes, says| Case {
        name,
        bytes,
        truncated: false,
        says,
    };
    vec![
        case("dup", &[(1, s), (1, p), (1, p)], 4, false, "ascending"),
        case("tag", &[(1, s), (7, p), (1, o)], 4, false, "kind tag"),
        case("utf8", &[(1, s), (1, bad_utf8), (1, o)], 4, false, "UTF-8"),
        case("cut", &[(1, s), (1, p), (1, None)], 4, true, ""),
        case("count", &[(1, s), (1, p), (1, o)], 5, false, "disagrees"),
        raw("descending", with_dict(&descending, 4), "ascending"),
        raw("kindtie", swapped(kind_tie), "ascending"),
        raw("texttie", swapped(text_tie), "ascending"),
    ]
}

fn assert_typed<T: std::fmt::Debug>(
    case: &Case,
    entry: &str,
    got: Result<T, StoreError>,
) {
    match (case.truncated, &got) {
        (false, Err(StoreError::Corrupt(m))) if m.contains(case.says) => {}
        (true, Err(StoreError::Truncated { .. })) => {}
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
        &hash_ordered(&[(1, Some(b"s")), (1, Some(b"p")), (1, Some(b"o"))]),
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
        let kind = if case.truncated { "truncated" } else { "corrupt" };
        let out = dir.join(format!("{}.nt", case.name));
        let export = match rdf_cli::export(&path, &out) {
            Ok(_) => panic!("{} exported", case.name),
            Err(e) => e.to_string(),
        };
        assert!(!out.exists(), "{}: export wrote output", case.name);
        let mut via = vec![("align", align_error(&path)), ("export", export)];
        let text = good_text(&dir);
        for (pair, [a, b]) in [
            ("store/store", [&path, &path]),
            ("nt/store", [&text, &path]),
            ("store/nt", [&path, &text]),
        ] {
            via.extend(session_errors(a, b).into_iter().map(|m| (pair, m)));
        }
        for (entry, msg) in via {
            assert!(
                msg.contains(&format!("{}.rdfb", case.name))
                    && msg.contains(kind)
                    && msg.contains(case.says),
                "{} via {entry}: {msg}",
                case.name
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose `BNAM` names a node beyond the node count, and one
/// whose `TRPL` records are not ascending, both re-framed with valid
/// checksums: the union path (the session load of a store/store and an
/// N-Triples/store pair, `rdf align`) refuses each with an error that
/// names the file and the defect, as the owned decode does.
#[test]
fn bnam_and_trpl_defects_are_typed_errors_on_the_union_path() {
    let dir = std::env::temp_dir()
        .join(format!("rdf-cli-section-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut vocab = Vocab::new();
    let g = {
        let mut b = RdfGraphBuilder::new(&mut vocab);
        b.uuu("s", "p", "o");
        b.uuu("o", "p", "s");
        b.uub("s", "q", "x");
        b.finish()
    };
    let bytes = graph_to_bytes(&vocab, &g).unwrap();

    let mut bnam = Vec::new();
    write_varint(&mut bnam, 1);
    write_varint(&mut bnam, g.node_count() as u64 + 2);
    write_varint(&mut bnam, 1);
    bnam.push(b'x');
    pad8(&mut bnam);

    let trpl = {
        let c = Container::parse(&bytes).unwrap();
        reversed_records(c.section(*b"TRPL").unwrap())
    };

    for (name, tag, body, defect) in [
        ("bnam", b"BNAM", bnam, "beyond node count"),
        ("trpl", b"TRPL", trpl, "not strictly ascending"),
    ] {
        let bad = reframe(&bytes, tag, &body, None);
        let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bad));
        reader.info().expect("checksums are valid");
        let typed = |got: Result<(), StoreError>, entry: &str| match got {
            Err(StoreError::Corrupt(m)) if m.contains(defect) => {}
            other => panic!("{name} via {entry}: got {other:?}"),
        };
        typed(reader.read_graph().map(drop), "read_graph");

        let path = dir.join(format!("{name}.rdfb"));
        std::fs::write(&path, &bad).unwrap();
        let mut via = vec![("align", align_error(&path))];
        let text = good_text(&dir);
        for (pair, [a, b]) in
            [("store/store", [&path, &path]), ("nt/store", [&text, &path])]
        {
            via.extend(session_errors(a, b).into_iter().map(|m| (pair, m)));
        }
        for (entry, msg) in via {
            assert!(
                msg.contains(&format!("{name}.rdfb"))
                    && msg.contains("corrupt")
                    && msg.contains(defect),
                "{name} via {entry}: {msg}"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `rdf info --bisim <path>` fails with exit 2, naming the path and the
/// defect, without a panic.
fn assert_info_bisim_refuses(path: &Path, defect: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_rdf"))
        .args(["info", "--bisim", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{}: {err}", path.display());
    assert!(
        err.contains(path.to_str().unwrap())
            && err.contains("corrupt")
            && err.contains(defect)
            && !err.contains("panicked"),
        "{}: {err}",
        path.display()
    );
}

/// The label bound on a `NODE` id: the `DICT` entry count. A store
/// with valid checksums whose `NODE` holds an id equal to the count is
/// `Corrupt` through the view, the owned decode, the session load and
/// `rdf info --bisim`; a `DICT` whose declared count matches the header
/// but not what its body holds is refused by the view and `info
/// --bisim` before any entry is read.
#[test]
fn node_label_ids_beyond_the_dictionary_are_refused_everywhere() {
    let dir = std::env::temp_dir()
        .join(format!("rdf-cli-label-bound-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Case 1: the sample's labels are dictionary ids 1..=3 of 4.
    // A fixed `NODE` body: count 3, width 1, then the ids 1, 2 and 4.
    let mut node = Vec::new();
    node.extend_from_slice(&3u64.to_le_bytes());
    node.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]);
    node.extend_from_slice(&[1, 2, 4]);
    pad8(&mut node);
    let bad = reframe(&sample(), b"NODE", &node, None);
    let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bad));
    reader.info().expect("checksums are valid");
    let beyond = |got: Result<(), StoreError>, entry: &str| match got {
        Err(StoreError::Corrupt(m)) if m.contains("beyond dictionary") => {}
        other => panic!("label bound via {entry}: got {other:?}"),
    };
    beyond(reader.read_view().map(drop), "read_view");
    beyond(reader.read_graph().map(drop), "read_graph");
    let path = dir.join("label-bound.rdfb");
    std::fs::write(&path, &bad).unwrap();
    for msg in session_errors(&path, &path) {
        assert!(
            msg.contains("label-bound.rdfb")
                && msg.contains("corrupt")
                && msg.contains("beyond dictionary"),
            "label bound via the session load: {msg}"
        );
    }
    assert_info_bisim_refuses(&path, "beyond dictionary");

    // Case 2: a declared count of 2^20 in a body of three entries.
    let count = 1u64 << 20;
    let mut dict = Vec::new();
    write_varint(&mut dict, count);
    for text in [b"s", b"p", b"o"] {
        dict.push(1);
        write_varint(&mut dict, 1);
        dict.extend_from_slice(text);
    }
    pad8(&mut dict);
    let bad = reframe(&sample(), b"DICT", &dict, Some(count));
    let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bad));
    reader.info().expect("checksums are valid");
    match reader.read_view() {
        Err(StoreError::Corrupt(m)) if m.contains("exceeds") => {}
        other => panic!("forged count via read_view: got {other:?}"),
    }
    let path = dir.join("forged-count.rdfb");
    std::fs::write(&path, &bad).unwrap();
    assert_info_bisim_refuses(&path, "exceeds");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose one triple breaks an RDF convention, written by the
/// store writer itself, so its `DICT` is correctly ordered and its
/// sections checksummed: the subject and predicate get the given
/// labels, the object the URI `o`.
fn convention_breaker(s: (LabelKind, &str), p: (LabelKind, &str)) -> Vec<u8> {
    let mut vocab = Vocab::new();
    let mut b = GraphBuilder::new();
    let sn = b.add_node(vocab.intern(s.0, s.1), &vocab);
    let pn = b.add_node(vocab.intern(p.0, p.1), &vocab);
    let on = b.add_node(vocab.uri("o"), &vocab);
    b.add_triple(sn, pn, on);
    let g = RdfGraph::from_raw_parts(b.freeze(), Default::default());
    graph_to_bytes(&vocab, &g).unwrap()
}

/// A literal subject, a literal predicate and a blank predicate are
/// `Corrupt`, naming the `TRPL` record, through the owned decode, the
/// direct join, the session load (store/store, N-Triples/store, with and
/// without texts), `rdf align` and `rdf export`.
#[test]
fn stores_breaking_rdf_conventions_are_refused_everywhere() {
    let dir = std::env::temp_dir()
        .join(format!("rdf-cli-conventions-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let text = good_text(&dir);
    let (uri, literal) = (LabelKind::Uri, LabelKind::Literal);
    for (name, s, p, rule) in [
        ("litsubj", (literal, "s"), (uri, "p"), "literal in subject position"),
        ("litpred", (uri, "s"), (literal, "p"), "literal in predicate position"),
        (
            "blankpred",
            (uri, "s"),
            (LabelKind::Blank, ""),
            "blank node in predicate position",
        ),
    ] {
        let bytes = convention_breaker(s, p);
        let says = format!("record 0: {rule}");
        let reader =
            BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
        reader.info().expect("checksums are valid");
        let typed = |got: Result<(), StoreError>, entry: &str| match got {
            Err(StoreError::Corrupt(m)) if m.contains(&says) => {}
            other => panic!("{name} via {entry}: got {other:?}"),
        };
        let rec = Recorder::disabled();
        typed(reader.read_graph().map(drop), "read_graph");
        typed(
            reader.read_graph_into(&mut Vocab::new(), &rec).map(drop),
            "read_graph_into",
        );

        let path = dir.join(format!("{name}.rdfb"));
        std::fs::write(&path, &bytes).unwrap();
        let out = dir.join(format!("{name}.nt"));
        let export = match rdf_cli::export(&path, &out) {
            Ok(_) => panic!("{name} exported"),
            Err(e) => e.to_string(),
        };
        assert!(!out.exists(), "{name}: export wrote output");
        let cli = Command::new(env!("CARGO_BIN_EXE_rdf"))
            .args(["align", path.to_str().unwrap(), path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(cli.status.code(), Some(2), "{name}: rdf align");
        let mut via = vec![
            ("align", align_error(&path)),
            ("export", export),
            ("rdf align", String::from_utf8_lossy(&cli.stderr).into_owned()),
        ];
        for (pair, [a, b]) in
            [("store/store", [&path, &path]), ("nt/store", [&text, &path])]
        {
            via.extend(session_errors(a, b).into_iter().map(|m| (pair, m)));
        }
        for (entry, msg) in via {
            assert!(
                msg.contains(&format!("{name}.rdfb"))
                    && msg.contains("corrupt")
                    && msg.contains(&says)
                    && !msg.contains("panicked"),
                "{name} via {entry}: {msg}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chain `n0 -> n1 -> ..` of `nodes` URI nodes under one predicate,
/// written by the store writer, with node `literal_at` a literal instead
/// when set. The predicate is the last node, so every node but the last
/// two is the subject of one triple, and node `k`'s triple is `TRPL`
/// record `k`.
fn chain_store(nodes: usize, literal_at: Option<usize>) -> Vec<u8> {
    let mut vocab = Vocab::new();
    let mut b = GraphBuilder::new();
    let chain: Vec<_> = (0..nodes)
        .map(|i| {
            let text = format!("n{i}");
            let label = if literal_at == Some(i) {
                vocab.literal(&text)
            } else {
                vocab.uri(&text)
            };
            b.add_node(label, &vocab)
        })
        .collect();
    let next = b.add_node(vocab.uri("next"), &vocab);
    for pair in chain.windows(2) {
        b.add_triple(pair[0], next, pair[1]);
    }
    let g = RdfGraph::from_raw_parts(b.freeze(), Default::default());
    graph_to_bytes(&vocab, &g).unwrap()
}

/// A fixed `TRPL` body with records `at` and `at + 1` swapped in every
/// column, so record `at + 1` is the one triple that descends.
fn swapped_records(body: &[u8], at: usize) -> Vec<u8> {
    let fb = parse_fixed_body(body, 3, None, "TRPL").unwrap();
    let width = fb.width as usize;
    let mut out = body.to_vec();
    for c in 0..3 {
        let start = FIXED_PREAMBLE + c * fb.col_stride + at * width;
        let pair = &mut out[start..start + 2 * width];
        pair.rotate_left(width);
    }
    out
}

/// A store whose `DICT`, `NODE` and `TRPL` walks each take more than one
/// release window (and `TRPL` more than three) loads whole through the
/// session load. With a defect at the first record of its second `TRPL`
/// window — a descending pair straddling the window boundary, or a
/// literal subject — the owned decode, the direct join, the session load
/// (store/store and N-Triples/store, with and without texts) and `rdf
/// align` each refuse it at that record.
#[test]
fn defects_past_the_first_window_are_refused_at_their_record() {
    let dir = std::env::temp_dir()
        .join(format!("rdf-cli-windows-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Node and triple ids above 65535 make every column 4 bytes wide: a
    // `NODE` window holds RELEASE_WINDOW / 4 labels, a `TRPL` window
    // RELEASE_WINDOW / 12 records.
    let nodes = RELEASE_WINDOW / 4 + 1_000;
    let step = RELEASE_WINDOW / 12;
    let valid = chain_store(nodes, None);
    let c = Container::parse(&valid).unwrap();
    let trpl = c.section(*b"TRPL").unwrap();
    assert_eq!(parse_fixed_body(trpl, 3, None, "TRPL").unwrap().width, 4);
    assert!(c.section(*b"DICT").unwrap().len() > 2 * RELEASE_WINDOW);
    assert!(nodes - 2 > 3 * step);

    let path = dir.join("valid.rdfb");
    std::fs::write(&path, &valid).unwrap();
    let (s, t) = (Input::open(&path).unwrap(), Input::open(&path).unwrap());
    let session = Session::load(s, t, false, &Recorder::disabled()).unwrap();
    let union = session.combined().graph();
    assert_eq!(union.node_count(), 2 * (nodes + 1));
    assert_eq!(union.triple_count(), 2 * (nodes - 1));
    let (_, owned) = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&valid))
        .read_graph()
        .unwrap();
    assert!(owned.graph().triples().eq(union.triples().take(nodes - 1)));

    let text = good_text(&dir);
    for (name, bad, says) in [
        (
            "descending",
            reframe(&valid, b"TRPL", &swapped_records(trpl, step - 1), None),
            format!("not strictly ascending at record {step}"),
        ),
        (
            "litsubj",
            chain_store(nodes, Some(step)),
            format!("record {step}: literal in subject position"),
        ),
    ] {
        let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bad));
        reader.info().expect("checksums are valid");
        let typed = |got: Result<(), StoreError>, entry: &str| match got {
            Err(StoreError::Corrupt(m)) if m.contains(&says) => {}
            other => panic!("{name} via {entry}: got {other:?}"),
        };
        typed(reader.read_graph().map(drop), "read_graph");
        typed(
            reader
                .read_graph_into(&mut populated(), &Recorder::disabled())
                .map(drop),
            "read_graph_into",
        );
        let path = dir.join(format!("{name}.rdfb"));
        std::fs::write(&path, &bad).unwrap();
        let mut via = vec![("align", align_error(&path))];
        for (pair, [a, b]) in
            [("store/store", [&path, &path]), ("nt/store", [&text, &path])]
        {
            via.extend(session_errors(a, b).into_iter().map(|m| (pair, m)));
        }
        for (entry, msg) in via {
            assert!(
                msg.contains(&format!("{name}.rdfb"))
                    && msg.contains("corrupt")
                    && msg.contains(&says),
                "{name} via {entry}: {msg}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
