//! The union `rdf align` loads is the union of the per-version loads.
//!
//! `Session::load` joins both inputs' labels with one merge and appends
//! both inputs straight into one graph (a store column by column,
//! N-Triples text through its parsed graph), building no per-version
//! graph. These tests hold that union to `CombinedGraph::union` over
//! the two graphs `load_input` reads into one vocabulary — the label
//! set, each node's label up to the relabelling by merged rank, kinds,
//! every `out(n)`, the triples and the side boundary — and certify the
//! refinement partitions computed over its borrowed columns with the
//! exact `verify_stable` check.

use rdf_align::refine::verify_stable;
use rdf_align::{
    deblank_partition_with, hybrid_partition_with, label_partition,
    RefineEngine, Threads,
};
use rdf_cli::pipeline::Input;
use rdf_cli::Session;
use rdf_model::{CombinedGraph, LabelId, RdfGraph, RdfGraphBuilder, Vocab};
use rdf_obs::Recorder;
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("rdf-cli-union-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    /// Write `g` as a store and as N-Triples text; returns both paths.
    fn write(&self, name: &str, vocab: &Vocab, g: &RdfGraph) -> [PathBuf; 2] {
        let store = self.0.join(format!("{name}.rdfb"));
        rdf_store::save_graph(&store, vocab, g).unwrap();
        let text = self.0.join(format!("{name}.nt"));
        rdf_io::save_file(&text, g, vocab).unwrap();
        [store, text]
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn load(source: &Path, target: &Path) -> Session {
    load_with(source, target, true)
}

fn load_with(source: &Path, target: &Path, texts: bool) -> Session {
    Session::load(
        Input::open(source).unwrap(),
        Input::open(target).unwrap(),
        texts,
        &Recorder::disabled(),
    )
    .unwrap()
}

/// The session's union of `source` and `target` equals
/// `CombinedGraph::union` of the per-version loads.
fn assert_union_identity(source: &Path, target: &Path) {
    let what = format!("{} + {}", source.display(), target.display());
    let session = load(source, target);
    let mut vocab = Vocab::new();
    let g1 = rdf_cli::load_input(source, &mut vocab).unwrap();
    let g2 = rdf_cli::load_input(target, &mut vocab).unwrap();
    let reference = CombinedGraph::union(&vocab, &g1, &g2);

    // Session ids are the ranks of the merged hash order, so the held
    // texts list the session's labels in that order.
    let held = session.texts().expect("loaded with texts");
    assert_eq!(held.len(), vocab.len(), "{what}: vocabulary size");
    let ranks = (1..held.len() as u32).map(LabelId);
    assert!(held.hash_order().into_iter().eq(ranks), "{what}: ranks");
    let bare = load_with(source, target, false);
    assert!(bare.texts().is_none(), "{what}: text-less load holds texts");
    assert_eq!(
        bare.combined().graph().labels_raw(),
        session.combined().graph().labels_raw(),
        "{what}: texts change the labels"
    );
    let (c, g, r) = (
        session.combined(),
        session.combined().graph(),
        reference.graph(),
    );
    assert_eq!(c.source_len(), reference.source_len(), "{what}: source_len");
    assert_eq!(c.source_len(), g1.node_count(), "{what}: source_len");
    assert_eq!(g.node_count(), r.node_count(), "{what}: nodes");
    assert_eq!(g.triple_count(), r.triple_count(), "{what}: triples");
    for n in g.nodes() {
        let (l, m) = (g.label(n), r.label(n));
        assert_eq!(held.kind(l), vocab.kind(m), "{what}: kind of {n}");
        assert_eq!(held.text(l), vocab.text(m), "{what}: text of {n}");
    }
    assert_eq!(g.kinds_raw(), r.kinds_raw(), "{what}: kinds");
    for n in g.nodes() {
        assert_eq!(g.out(n), r.out(n), "{what}: out({n})");
    }
    assert!(g.triples().eq(r.triples()), "{what}: triples differ");
}

/// The two versions of the paper's Figure 1.
fn figure1(vocab: &mut Vocab) -> (RdfGraph, RdfGraph) {
    let v1 = {
        let mut b = RdfGraphBuilder::new(vocab);
        b.uub("ss", "address", "b1");
        b.uuu("ss", "employer", "ed-uni");
        b.uub("ss", "name", "b2");
        b.bul("b1", "zip", "EH8");
        b.bul("b1", "city", "Edinburgh");
        b.uul("ed-uni", "name", "University of Edinburgh");
        b.uul("ed-uni", "city", "Edinburgh");
        b.bul("b2", "first", "Sławek");
        b.bul("b2", "middle", "Paweł");
        b.bul("b2", "last", "Staworko");
        b.finish()
    };
    let v2 = {
        let mut b = RdfGraphBuilder::new(vocab);
        b.uub("ss", "address", "b3");
        b.uuu("ss", "employer", "uoe");
        b.uub("ss", "name", "b4");
        b.bul("b3", "zip", "EH8");
        b.bul("b3", "city", "Edinburgh");
        b.uul("uoe", "name", "University of Edinburgh");
        b.uul("uoe", "city", "Edinburgh");
        b.bul("b4", "first", "Sławomir");
        b.bul("b4", "last", "Staworko");
        b.finish()
    };
    (v1, v2)
}

/// The two versions of the paper's Figure 3 (a renamed URI, merged
/// bisimilar blanks, a renamed blank).
fn figure3(vocab: &mut Vocab) -> (RdfGraph, RdfGraph) {
    let g1 = {
        let mut b = RdfGraphBuilder::new(vocab);
        b.uub("w", "p", "b1");
        b.uuu("w", "p", "u");
        b.buu("b1", "q", "u");
        b.bul("b1", "q", "a");
        b.bub("b1", "r", "b2");
        b.bul("b2", "q", "b");
        b.bul("b3", "q", "b");
        b.uub("u", "r", "b3");
        b.uul("u", "q", "a");
        b.finish()
    };
    let g2 = {
        let mut b = RdfGraphBuilder::new(vocab);
        b.uub("w", "p", "b5");
        b.uuu("w", "p", "v");
        b.buu("b5", "q", "v");
        b.bul("b5", "q", "a");
        b.bub("b5", "r", "b4");
        b.bul("b4", "q", "b");
        b.uub("v", "r", "b4");
        b.uul("v", "q", "a");
        b.finish()
    };
    (g1, g2)
}

/// A small generated EFO-like version pair, written as stores and
/// text.
fn datagen_pair(dir: &TempDir) -> ([PathBuf; 2], [PathBuf; 2]) {
    let mut cfg = rdf_datagen::EfoConfig::default().scaled(0.1);
    cfg.versions = 2;
    let ds = rdf_datagen::generate_efo(&cfg);
    let v1 = dir.write("efo-v1", &ds.vocab, &ds.versions[0].graph);
    let v2 = dir.write("efo-v2", &ds.vocab, &ds.versions[1].graph);
    (v1, v2)
}

#[test]
fn paper_figures_load_into_the_same_union() {
    let dir = TempDir::new("figures");
    for (name, build) in [
        ("fig1", figure1 as fn(&mut Vocab) -> (RdfGraph, RdfGraph)),
        ("fig3", figure3),
    ] {
        let mut vocab = Vocab::new();
        let (g1, g2) = build(&mut vocab);
        let [s1, t1] = dir.write(&format!("{name}-v1"), &vocab, &g1);
        let [s2, t2] = dir.write(&format!("{name}-v2"), &vocab, &g2);
        assert_union_identity(&s1, &s2);
        assert_union_identity(&t1, &t2);
    }
}

#[test]
fn datagen_pair_loads_into_the_same_union() {
    let dir = TempDir::new("datagen");
    let ([s1, _], [s2, _]) = datagen_pair(&dir);
    assert_union_identity(&s1, &s2);
    assert_union_identity(&s2, &s1);
}

#[test]
fn a_store_aligned_with_itself_loads_into_the_same_union() {
    let dir = TempDir::new("self");
    let ([s1, _], _) = datagen_pair(&dir);
    assert_union_identity(&s1, &s1);
}

#[test]
fn a_store_and_text_load_into_the_same_union_in_both_orders() {
    let dir = TempDir::new("mixed");
    let ([s1, _], [_, t2]) = datagen_pair(&dir);
    assert_union_identity(&s1, &t2);
    assert_union_identity(&t2, &s1);
}

/// A document of `n` triples, `shift` apart from another of the same
/// `n`, whose store's `DICT` spans three windows or more and whose
/// `TRPL` spans two: every triple has its own long literal.
fn large_document(n: usize, shift: usize) -> String {
    let mut doc = String::new();
    for i in shift..shift + n {
        let s = i / 2;
        doc.push_str(&match i % 10 {
            0 => format!("_:b{s} <http://e.org/p> <http://e.org/s{s}> .\n"),
            _ => format!(
                "<http://e.org/s{s}> <http://e.org/p{}> \
                 \"literal number {i}, long enough to fill windows\" .\n",
                i % 3
            ),
        });
    }
    doc
}

/// Stores `rdf import` wrote a window at a time, with sections larger
/// than a window, load through the store/store session into the union
/// of their per-version loads.
#[test]
fn imported_stores_spanning_windows_load_into_the_same_union() {
    let dir = TempDir::new("windows");
    let [s1, s2] = [0, 30_000].map(|shift| {
        let text = dir.0.join(format!("large-{shift}.nt"));
        std::fs::write(&text, large_document(100_000, shift)).unwrap();
        let store = dir.0.join(format!("large-{shift}.rdfb"));
        rdf_cli::import_traced(&text, &store, &Recorder::disabled()).unwrap();
        store
    });
    let bytes = std::fs::read(&s1).unwrap();
    let c = rdf_store::Container::parse(&bytes).unwrap();
    let window = rdf_store::container::SECTION_WINDOW;
    assert!(c.section(*b"DICT").unwrap().len() > 2 * window);
    assert!(c.section(*b"TRPL").unwrap().len() > window);
    assert_union_identity(&s1, &s2);
}

#[test]
fn empty_graphs_load_into_the_same_union() {
    let dir = TempDir::new("empty");
    let mut vocab = Vocab::new();
    let empty = RdfGraphBuilder::new(&mut vocab).finish();
    let [store, text] = dir.write("empty", &vocab, &empty);
    let mut vocab = Vocab::new();
    let (g1, _) = figure1(&mut vocab);
    let [fig, _] = dir.write("fig1", &vocab, &g1);
    for (a, b) in [
        (&store, &store),
        (&store, &text),
        (&text, &fig),
        (&fig, &store),
    ] {
        assert_union_identity(a, b);
    }
    let session = load(&store, &text);
    assert_eq!(session.combined().graph().node_count(), 0);
}

/// The deblank and hybrid partitions of the union `Session::load`
/// builds are fixpoints of `BisimRefine_X` over its borrowed columns,
/// by the exact check that shares no hash with the engine; the label
/// partition, which is not, is refused.
#[test]
fn partitions_of_the_loaded_union_are_certified_stable() {
    let dir = TempDir::new("certify");
    let ([s1, _], [s2, _]) = datagen_pair(&dir);
    let session = load(&s1, &s2);
    let c = session.combined();
    let g = c.graph();
    let cols = g.out_columns();
    let blank: Vec<bool> = g.nodes().map(|n| g.is_blank(n)).collect();
    for threads in [1, 2] {
        let mut engine = RefineEngine::new(Threads::Fixed(threads));
        let deblank = deblank_partition_with(c, &mut engine).partition;
        assert_eq!(verify_stable(&deblank, &cols, &blank), Ok(()));
        let hybrid = hybrid_partition_with(c, &mut engine);
        let mut in_x = vec![false; g.node_count()];
        for n in &hybrid.unaligned {
            in_x[n.index()] = true;
        }
        assert_eq!(verify_stable(&hybrid.partition, &cols, &in_x), Ok(()));
    }
    assert!(verify_stable(&label_partition(g), &cols, &blank).is_err());
}
