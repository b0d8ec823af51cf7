//! [`BorrowedStoreReader`]: the one graph-store reader, over one
//! [`StoreBuf`].
//!
//! A [`StoreBuf`] (mapped file or aligned owned buffer) is parsed in
//! place — one [`Container::parse`] per call — and the fixed-width
//! `NODE`/`TRPL` columns are read straight from it. Every column is
//! **borrowed from the file bytes** when it is 4 bytes wide on a
//! little-endian host; narrower columns are widened into owned
//! vectors. Four entry points share those checked columns:
//!
//! * [`BorrowedStoreReader::info`] — header, section sizes and the load
//!   mode, for `rdf info`;
//! * [`BorrowedStoreReader::view_in`] — a [`TripleGraphView`] whose
//!   columns borrow from the buffer, for `rdf info --bisim`: the
//!   `NODE` labels and the `TRPL` edges, which are all bisimulation
//!   reads. Of `DICT` it reads only the entry count, which bounds the
//!   label ids; it reads no entry and interns nothing;
//! * [`BorrowedStoreReader::part`] — the store as a [`GraphPart`]: its
//!   `DICT` walked in place as hash-ordered keys, for a session to
//!   merge with its other input's ([`crate::dict::merge_labels`]), then
//!   its columns appended to a [`GraphAppender`] (the union of two
//!   versions) through the resulting id map, with `BNAM` checked but
//!   not kept, for `align` (one-shot and served);
//! * [`BorrowedStoreReader::read_graph_into`] — the same append into an
//!   empty appender with the `DICT` interned into a [`Vocab`] instead,
//!   plus `BNAM` decoded, as an owned [`RdfGraph`], for `export`.
//!
//! Every pass over a mapped buffer releases the pages behind it
//! ([`StoreBuf::release`]): the checksum pass, and each section walk of
//! a load.
//!
//! A caller that needs both the summary and the view (as `rdf info
//! --bisim` does) parses once with [`BorrowedStoreReader::container`]
//! and hands the result to [`StoreInfo::of`] and
//! [`BorrowedStoreReader::view_in`].
//!
//! The view borrows from the reader, which the borrow checker turns
//! into the safety property that matters: a view can never outlive the
//! buffer (mapping) backing it. See the compile-fail example on
//! [`BorrowedStoreReader`].

use crate::container::{
    Container, Header, Layout, KIND_GRAPH, SECTION_OVERHEAD,
};
use crate::error::StoreError;
use crate::fixed::{fixed_column, parse_fixed_body, widen_column, FixedBody};
use crate::dict::{intern_keys, DictKeys};
use crate::graph_store::{
    decode_bnam, dict_entry, dict_label_count, dict_section,
    label_beyond_dict, section_span, walk_bnam, TAG_BNAM, TAG_DICT,
    TAG_NODE, TAG_TRPL,
};
use crate::mmap::{StoreBuf, RELEASE_WINDOW};
use rdf_model::{
    label_ids_from_le_bytes, node_ids_from_le_bytes, GraphAppender, LabelId,
    LabelKind, NodeId, RdfGraph, TripleGraphView, ViewError, Vocab,
};
use rdf_obs::Recorder;
use rdf_par::Threads;
use std::borrow::Cow;
use std::path::Path;

/// How a reader materialised a store's id columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// 4-byte columns served as slices of the buffer.
    Borrow,
    /// 1/2-byte columns widened to owned `u32`s.
    Widen,
}

impl std::fmt::Display for LoadMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LoadMode::Borrow => "borrow",
            LoadMode::Widen => "widen",
        })
    }
}

/// Summary of a container, as shown by `rdf info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Parsed fixed header.
    pub header: Header,
    /// Section body layout the header version selects: fixed for
    /// graph stores, varint for version-1 archives.
    pub layout: Layout,
    /// The [`LoadMode`] a view of this graph store uses for its id
    /// columns, by the `TRPL` column width (`None` for archives).
    pub mode: Option<LoadMode>,
    /// Byte width of the `TRPL` columns (`None` for archives). Lets
    /// callers render `widen (width N)` instead of a bare `widen`.
    pub trpl_width: Option<u8>,
    /// Total file size in bytes.
    pub file_bytes: usize,
    /// `(tag, framed bytes)` per section, in file order. Present only
    /// after full validation — every listed section passed its checksum.
    pub sections: Vec<(String, usize)>,
}

impl StoreInfo {
    /// Summarise an already-parsed (fully validated) container of any
    /// content kind.
    pub fn of(c: &Container<'_>) -> StoreInfo {
        let header = *c.header();
        let (mode, trpl_width) = if header.kind == KIND_GRAPH {
            let width = c.section(TAG_TRPL).ok().and_then(|b| {
                parse_fixed_body(b, 3, None, "fixed TRPL section")
                    .ok()
                    .map(|fb| fb.width)
            });
            let mode = match width {
                Some(4) if cfg!(target_endian = "little") => LoadMode::Borrow,
                _ => LoadMode::Widen,
            };
            (Some(mode), width)
        } else {
            (None, None)
        };
        let sections: Vec<(String, usize)> = c
            .sections()
            .iter()
            .map(|(tag, p)| {
                (
                    String::from_utf8_lossy(tag).into_owned(),
                    p.len() + SECTION_OVERHEAD,
                )
            })
            .collect();
        StoreInfo {
            header,
            layout: header.layout(),
            mode,
            trpl_width,
            file_bytes: crate::container::HEADER_LEN
                + sections.iter().map(|(_, n)| n).sum::<usize>(),
            sections,
        }
    }
}

/// The `NODE` and `TRPL` id columns of a graph store, borrowed or
/// widened, with the bytes they were read from.
struct Columns<'a> {
    labels: Cow<'a, [LabelId]>,
    spo: [Cow<'a, [NodeId]>; 3],
    /// The `NODE` column's bytes.
    node_column: &'a [u8],
    /// The bytes of the `TRPL` columns.
    trpl_columns: [&'a [u8]; 3],
}

/// A graph store opened over a [`StoreBuf`]: the one reader.
///
/// ```
/// use rdf_model::{RdfGraphBuilder, Vocab};
/// use rdf_store::{graph_to_bytes, BorrowedStoreReader, StoreBuf};
///
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("ss", "address", "b1");
///     b.bul("b1", "zip", "EH8");
///     b.finish()
/// };
/// let bytes = graph_to_bytes(&vocab, &g).unwrap();
/// let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
/// let info = reader.info().unwrap(); // header + checksums
/// assert_eq!(info.header.counts[1], g.node_count() as u64);
/// let (vocab2, view) = reader.read_view().unwrap();
/// assert_eq!(view.triple_count(), g.triple_count());
/// // The view's label ids are the store's dictionary ids.
/// let zip = vocab2.find_uri("zip").unwrap();
/// assert!(view.labels().contains(&zip));
/// let (_, owned) = reader.read_graph().unwrap();
/// assert!(owned.graph().triples().eq(g.graph().triples()));
/// ```
///
/// A view cannot outlive its reader (and thus its mapping) — this does
/// not compile:
///
/// ```compile_fail
/// use rdf_store::{BorrowedStoreReader, StoreBuf};
///
/// let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&[]));
/// let view = reader.read_view();
/// drop(reader); // error: `reader` is still borrowed by `view`
/// let _ = view;
/// ```
#[derive(Debug)]
pub struct BorrowedStoreReader {
    buf: StoreBuf,
}

impl BorrowedStoreReader {
    /// Open a store file as a buffer (mapped when possible).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Ok(BorrowedStoreReader {
            buf: StoreBuf::open(path)?,
        })
    }

    /// Wrap an existing buffer.
    pub fn from_buf(buf: StoreBuf) -> Self {
        BorrowedStoreReader { buf }
    }

    /// The underlying buffer.
    pub fn buf(&self) -> &StoreBuf {
        &self.buf
    }

    /// Parse and fully validate the container (header, framing, every
    /// section checksum) inside one `store.open` span. Works for any
    /// content kind; a version-1 graph store fails here with
    /// [`StoreError::RetiredLayout`]. The checksum pass releases the
    /// pages behind it ([`StoreBuf::release`]), so a section read later
    /// faults its pages back in as it is walked.
    pub fn container(
        &self,
        rec: &Recorder,
    ) -> Result<Container<'_>, StoreError> {
        let bytes = self.buf.as_slice();
        let mut open = rec.span("store.open");
        open.field("bytes", bytes.len());
        let c = Container::parse_releasing(bytes, |done| {
            self.buf.release(done)
        })?;
        open.field("layout", c.header().layout().to_string());
        Ok(c)
    }

    /// Validate the whole container and summarise it.
    pub fn info(&self) -> Result<StoreInfo, StoreError> {
        Ok(StoreInfo::of(&self.container(&Recorder::disabled())?))
    }

    /// Decode the dictionary and serve the graph as a view whose
    /// columns borrow from the buffer when they are 4 bytes wide: the
    /// view of [`BorrowedStoreReader::view_in`], plus the store's
    /// dictionary as a fresh [`Vocab`] (which also refuses repeated
    /// texts).
    pub fn read_view(
        &self,
    ) -> Result<(Vocab, TripleGraphView<'_>), StoreError> {
        let c = self.container(&Recorder::disabled())?;
        let view = Self::view_in(&c, &Recorder::disabled())?;
        let part = GraphPart::of(&self.buf, c)?;
        let mut vocab = Vocab::new();
        intern_keys(&mut part.labels()?, part.dict.len(), &mut vocab)?;
        Ok((vocab, view))
    }

    /// Serve the graph of an already-parsed container as a view, so a
    /// caller holding the parse pays no second checksum pass. Emits one
    /// `store.section` span per section read: `NODE` and `TRPL`.
    ///
    /// The view's label ids are the store's dictionary ids, and `DICT`
    /// is read only for its entry count: the count must match the
    /// header and fit the body, and a `NODE` label id at or above it is
    /// `Corrupt`, so no forged id can size a per-label table. No entry
    /// is read and no label is interned, so no label kind is known
    /// either: the view does not check the RDF conventions of
    /// [`BorrowedStoreReader::read_graph`] (a literal subject, a blank
    /// or literal predicate), which bisimulation does not need.
    pub fn view_in<'a>(
        c: &Container<'a>,
        rec: &Recorder,
    ) -> Result<TripleGraphView<'a>, StoreError> {
        let dict_body = graph_section(c, TAG_DICT)?;
        let label_count = dict_label_count(dict_body, c.header().counts[0])?;
        let Columns {
            labels,
            spo: [s, p, o],
            ..
        } = columns(c, rec)?;
        if let Some(&l) = labels.iter().find(|l| l.index() >= label_count) {
            return Err(label_beyond_dict(l, label_count));
        }
        TripleGraphView::from_sorted_columns(labels, &s, p, o)
            .map_err(|e| StoreError::Corrupt(e.to_string()))
    }

    /// Decode the graph and its dictionary into owned values.
    ///
    /// The returned [`Vocab`] contains exactly the store's dictionary
    /// (dense ids, blank label at 0); the graph's label ids index it
    /// directly.
    pub fn read_graph(&self) -> Result<(Vocab, RdfGraph), StoreError> {
        self.read_graph_traced(Threads::Auto, &Recorder::disabled())
    }

    /// [`BorrowedStoreReader::read_graph_into`] on a fresh [`Vocab`].
    ///
    /// `threads` is not used: the decode is sequential. The parameter
    /// remains because the benchmark harness calls this signature.
    pub fn read_graph_traced(
        &self,
        _threads: Threads,
        rec: &Recorder,
    ) -> Result<(Vocab, RdfGraph), StoreError> {
        let mut vocab = Vocab::new();
        let graph = self.read_graph_into(&mut vocab, rec)?;
        Ok((vocab, graph))
    }

    /// Load the graph with its labels interned straight into `vocab`:
    /// the mapped `DICT` is walked as borrowed text and each entry is
    /// interned with one hash ([`intern_entries`]), then the columns are
    /// appended to an empty [`GraphAppender`] through the resulting id
    /// map, as [`GraphPart::append_into`] appends them, and the `BNAM`
    /// names are decoded. The graph equals [`rdf_model::rebase_into`] of
    /// [`read_graph`] into the same vocabulary, without building the
    /// store's own vocabulary first.
    ///
    /// Emits one `store.open` span, one `store.section` span per section
    /// body (the `DICT` span carries `labels_new` and `labels_shared`)
    /// and one `store.append` span. Every check applies, each a typed
    /// [`StoreError`]. On error `vocab` keeps any labels interned before
    /// the error was found.
    ///
    /// [`read_graph`]: BorrowedStoreReader::read_graph
    /// [`intern_entries`]: crate::dict::intern_entries
    pub fn read_graph_into(
        &self,
        vocab: &mut Vocab,
        rec: &Recorder,
    ) -> Result<RdfGraph, StoreError> {
        let part = self.part(rec)?;
        let map = part.intern_into(vocab, rec)?;
        let columns = part.load(&map, vocab.kinds(), rec)?;
        let nodes = columns.labels.len();
        let mut graph = GraphAppender::new();
        columns.append_to(&mut graph, rec)?;
        let bnam_body = part.c.section(TAG_BNAM)?;
        let blank_names = {
            let _sp = section_span(rec, "BNAM", bnam_body.len());
            decode_bnam(bnam_body, nodes)?
        };
        self.buf.release(bnam_body);
        Ok(RdfGraph::from_raw_parts(graph.finish(), blank_names))
    }

    /// Parse and validate the container for a load ([`container`]) and
    /// check that it holds a graph: the store as a [`GraphPart`], whose
    /// labels a caller joins with any other input's before appending
    /// it. `rdf align` loads its stores this way, joining both
    /// dictionaries with one [`crate::dict::merge_labels`].
    ///
    /// [`container`]: BorrowedStoreReader::container
    pub fn part(&self, rec: &Recorder) -> Result<GraphPart<'_>, StoreError> {
        GraphPart::of(&self.buf, self.container(rec)?)
    }
}

/// A graph store's container, parsed and checksummed, ready to be
/// loaded in two steps: its labels are joined with other inputs'
/// ([`GraphPart::labels`]), then its graph is appended through the
/// resulting id map ([`GraphPart::append_into`]). Every section walk
/// releases the pages behind its cursor ([`StoreBuf::release`]), so a
/// part keeps little of its file resident while it waits for its
/// append.
#[derive(Debug)]
pub struct GraphPart<'a> {
    buf: &'a StoreBuf,
    c: Container<'a>,
    dict: &'a [u8],
}

impl<'a> GraphPart<'a> {
    fn of(buf: &'a StoreBuf, c: Container<'a>) -> Result<Self, StoreError> {
        let dict = graph_section(&c, TAG_DICT)?;
        Ok(GraphPart { buf, c, dict })
    }

    /// Bytes of the `DICT` body: a bound on the text its labels hold.
    pub fn dict_bytes(&self) -> usize {
        self.dict.len()
    }

    /// Walk the `DICT` in place as ascending [`LabelKey`]s
    /// ([`DictKeys::section`]). The entry count must equal the
    /// header's, and is checked here, before any entry is read; each
    /// entry's kind tag and UTF-8 are checked as it is read, the
    /// entries must ascend strictly by `(label_hash, kind, text)`, and
    /// the pad-to-8 tail is checked after the last one. Each is a typed
    /// error the walk ends with. Pages behind the cursor are released
    /// every [`crate::mmap::RELEASE_WINDOW`] bytes.
    ///
    /// [`LabelKey`]: crate::dict::LabelKey
    pub fn labels(&self) -> Result<DictKeys<'a>, StoreError> {
        let entries = dict_section(self.dict, self.c.header().counts[0])?;
        Ok(DictKeys::section(entries, self.buf))
    }

    /// Intern the `DICT` into `vocab` inside its `store.section` span
    /// and return the dictionary-id → vocabulary-id map.
    fn intern_into(
        &self,
        vocab: &mut Vocab,
        rec: &Recorder,
    ) -> Result<Vec<LabelId>, StoreError> {
        let mut sp = section_span(rec, "DICT", self.dict.len());
        let join = intern_keys(&mut self.labels()?, self.dict.len(), vocab)?;
        sp.field("labels_new", join.new);
        sp.field("labels_shared", join.shared());
        Ok(join.map)
    }

    /// Append the graph to `union` as its next part: each `NODE` label
    /// id `l` becomes `map[l]`, whose kind is `kinds[map[l]]`, and the
    /// `TRPL` columns are checked (ids in range, triples strictly
    /// ascending, no literal subject, no blank or literal predicate)
    /// and appended with no sort. `BNAM` is walked with every check
    /// [`BorrowedStoreReader::read_graph`] makes, but no name is kept:
    /// blank names are document-local, and nothing an alignment
    /// reports reads them. Returns the part's node and triple counts.
    ///
    /// `map` must have one entry per dictionary id (a `NODE` id beyond
    /// it is `Corrupt`), and `kinds` one per id `map` yields.
    ///
    /// Emits one `store.section` span each for `NODE`, `TRPL` and
    /// `BNAM`, and one `store.append` span. Every check is a typed
    /// [`StoreError`]; the `TRPL` checks are made one window of records
    /// at a time as it is appended, and on error the part is taken out
    /// again, so `union` is left as it was.
    pub fn append_into(
        &self,
        map: &[LabelId],
        kinds: &[LabelKind],
        union: &mut GraphAppender,
        rec: &Recorder,
    ) -> Result<(usize, usize), StoreError> {
        let part = self.load(map, kinds, rec)?;
        let counts = (part.labels.len(), part.spo[0].len());
        let bnam_body = self.c.section(TAG_BNAM)?;
        {
            let _sp = section_span(rec, "BNAM", bnam_body.len());
            walk_bnam(bnam_body, counts.0, |_, _| {})?;
        }
        self.buf.release(bnam_body);
        part.append_to(union, rec)?;
        Ok(counts)
    }

    /// Rewrite the `NODE` column through `map`, with its kinds, and
    /// check the `TRPL` columns against those kinds.
    fn load(
        &self,
        map: &[LabelId],
        kinds: &[LabelKind],
        rec: &Recorder,
    ) -> Result<Part<'a>, StoreError> {
        let Columns {
            labels: store_labels,
            spo,
            node_column,
            trpl_columns,
        } = columns(&self.c, rec)?;
        let mut labels = Vec::with_capacity(store_labels.len());
        let mut node_kinds = Vec::with_capacity(store_labels.len());
        let width = node_column.len() / store_labels.len().max(1);
        let step = RELEASE_WINDOW / width.max(1);
        for (i, window) in store_labels.chunks(step).enumerate() {
            for &l in window {
                let id = dict_entry(map, l)?;
                labels.push(id);
                node_kinds.push(kinds[id.index()]);
            }
            let at = i * step * width;
            self.buf.release(&node_column[at..at + window.len() * width]);
        }
        Ok(Part {
            labels,
            kinds: node_kinds,
            spo,
            trpl_columns,
            buf: self.buf,
        })
    }
}

/// The RDF conventions the N-Triples parser enforces
/// (`RdfError::{LiteralSubject, LiteralPredicate, BlankPredicate}`),
/// checked over a run of a part's subject and predicate columns, its
/// first record at index `first`, against the part's node kinds: a
/// violation is `Corrupt`, naming the `TRPL` record. An id beyond the
/// kinds is left to the range check of the append.
fn check_conventions(
    kinds: &[LabelKind],
    s: &[NodeId],
    p: &[NodeId],
    first: usize,
) -> Result<(), StoreError> {
    for (at, (s, p)) in (first..).zip(s.iter().zip(p)) {
        let rule = match (kinds.get(s.index()), kinds.get(p.index())) {
            (Some(LabelKind::Literal), _) => "literal in subject position",
            (_, Some(LabelKind::Literal)) => "literal in predicate position",
            (_, Some(LabelKind::Blank)) => "blank node in predicate position",
            _ => continue,
        };
        return Err(StoreError::Corrupt(format!(
            "fixed TRPL section: record {at}: {rule}"
        )));
    }
    Ok(())
}

/// One store's graph ready to append: its labels joined into the
/// session, their kinds, and its `TRPL` columns (with the bytes they
/// were read from, released as they are appended).
struct Part<'a> {
    labels: Vec<LabelId>,
    kinds: Vec<LabelKind>,
    spo: [Cow<'a, [NodeId]>; 3],
    trpl_columns: [&'a [u8]; 3],
    buf: &'a StoreBuf,
}

impl Part<'_> {
    /// Append the part inside one `store.append` span, reading the
    /// `TRPL` columns a window of records at a time: each window is
    /// checked against the RDF conventions and appended (which checks
    /// its ids and order), and its pages are released. On error the
    /// part is taken out of `union` again.
    fn append_to(
        self,
        union: &mut GraphAppender,
        rec: &Recorder,
    ) -> Result<(), StoreError> {
        let mut sp = rec.span("store.append");
        if sp.enabled() {
            sp.field("nodes", self.labels.len());
            sp.field("triples", self.spo[0].len());
        }
        let corrupt = |e| match e {
            ViewError::Unsorted { at } => StoreError::Corrupt(format!(
                "fixed TRPL section: triples not strictly ascending \
                 at record {at}"
            )),
            e => StoreError::Corrupt(e.to_string()),
        };
        let [s, p, o] = &self.spo;
        let records = s.len();
        let mut part =
            union.part(self.labels, self.kinds, records).map_err(corrupt)?;
        // A window spans the three columns, RELEASE_WINDOW bytes in all.
        let width = self.trpl_columns[0].len() / records.max(1);
        let step = RELEASE_WINDOW / (3 * width).max(1);
        for start in (0..records).step_by(step) {
            let w = start..records.min(start + step);
            let (s, p, o) = (&s[w.clone()], &p[w.clone()], &o[w.clone()]);
            check_conventions(part.kinds(), s, p, start)?;
            part.push(s, p, o).map_err(corrupt)?;
            for column in self.trpl_columns {
                self.buf.release(&column[w.start * width..w.end * width]);
            }
        }
        part.finish();
        Ok(())
    }
}

/// A section of a graph store, after checking the content kind.
fn graph_section<'a>(
    c: &Container<'a>,
    tag: [u8; 4],
) -> Result<&'a [u8], StoreError> {
    let found = c.header().kind;
    if found != KIND_GRAPH {
        return Err(StoreError::WrongContentKind {
            found,
            expected: KIND_GRAPH,
        });
    }
    c.section(tag)
}

/// Serve the `NODE` and `TRPL` columns — the part the view and the
/// owned load share. Callers have checked the content kind.
fn columns<'a>(
    c: &Container<'a>,
    rec: &Recorder,
) -> Result<Columns<'a>, StoreError> {
    let header = *c.header();
    let node_body = c.section(TAG_NODE)?;
    let (labels, node_column) = {
        let _sp = section_span(rec, "NODE", node_body.len());
        let fb = parse_fixed_body(
            node_body,
            1,
            Some(header.counts[1]),
            "fixed NODE section",
        )?;
        (
            id_column(node_body, &fb, 0, label_ids_from_le_bytes, LabelId, rec),
            fixed_column(node_body, &fb, 0),
        )
    };

    let trpl_body = c.section(TAG_TRPL)?;
    let (spo, trpl_columns) = {
        let _sp = section_span(rec, "TRPL", trpl_body.len());
        let fb = parse_fixed_body(
            trpl_body,
            3,
            Some(header.counts[2]),
            "fixed TRPL section",
        )?;
        let spo = [0, 1, 2].map(|i| {
            id_column(trpl_body, &fb, i, node_ids_from_le_bytes, NodeId, rec)
        });
        (spo, [0, 1, 2].map(|i| fixed_column(trpl_body, &fb, i)))
    };
    Ok(Columns {
        labels,
        spo,
        node_column,
        trpl_columns,
    })
}

/// Column `i` of a fixed body as typed ids: borrowed from the buffer
/// when it is 4 bytes wide (and the cast succeeds: little-endian host,
/// aligned bytes), otherwise widened into an owned vector, counted by
/// the `store.widen` counter.
fn id_column<'a, T: Clone>(
    body: &'a [u8],
    fb: &FixedBody,
    i: usize,
    cast: fn(&'a [u8]) -> Option<&'a [T]>,
    wrap: fn(u32) -> T,
    rec: &Recorder,
) -> Cow<'a, [T]> {
    let col = fixed_column(body, fb, i);
    match cast(col) {
        Some(ids) if fb.width == 4 => Cow::Borrowed(ids),
        _ => {
            rec.counter("store.widen").add(1);
            let wide = widen_column(col, fb.width);
            Cow::Owned(wide.into_iter().map(wrap).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_store::graph_to_bytes;
    use rdf_model::{RdfGraphBuilder, TripleGraph};

    fn sample() -> (Vocab, rdf_model::RdfGraph) {
        let mut vocab = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uub("ss", "address", "b1");
            b.bul("b1", "zip", "EH8 9AB");
            b.bul("b1", "city", "Edinburgh");
            b.uul("ss", "name", "Sławek");
            b.uuu("ss", "employer", "ed-uni");
            b.finish()
        };
        (vocab, g)
    }

    /// The view serves the graph's CSR columns, edge for edge.
    fn assert_same_edges(view: &TripleGraphView<'_>, g: &TripleGraph) {
        let (vc, gc) = (view.out_columns(), g.out_columns());
        assert_eq!(vc.offsets(), gc.offsets());
        assert_eq!(vc.preds(), gc.preds());
        assert_eq!(vc.objs(), gc.objs());
    }

    /// The view and the owned load agree on the fixed layout, and the
    /// version-1 (varint) layout is refused by both with the same
    /// typed error.
    #[test]
    fn view_matches_owned_load_both_layouts() {
        let (vocab, g) = sample();
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        let reader =
            BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
        let (v2, view) = reader.read_view().unwrap();
        let (owned_v, owned) = reader.read_graph().unwrap();
        assert_eq!(view.node_count(), g.node_count());
        assert_eq!(view.triple_count(), g.triple_count());
        // Store label ids are hash-order ranks: equal by term.
        let terms = |v: &Vocab, ids: &[LabelId]| -> Vec<String> {
            ids.iter().map(|&l| v.resolve(l).to_string()).collect()
        };
        assert_eq!(
            terms(&v2, view.labels()),
            terms(&vocab, g.graph().labels_raw())
        );
        assert_same_edges(&view, g.graph());
        assert!(owned.graph().triples().eq(g.graph().triples()));
        assert_eq!(owned.graph().labels_raw(), view.labels());
        assert_eq!(v2.len(), owned_v.len());
        // Small ids -> width 1/2 -> widen, never borrow.
        assert!(!view.columns_borrowed());
        assert_eq!(reader.info().unwrap().mode, Some(LoadMode::Widen));

        for version in [1, 2] {
            let mut old = bytes.clone();
            old[4] = version;
            let reader =
                BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&old));
            let retired = |e| match e {
                StoreError::RetiredLayout { version: v } => {
                    v == u16::from(version)
                }
                _ => false,
            };
            assert!(reader.read_view().err().is_some_and(retired));
            assert!(reader.read_graph().err().is_some_and(retired));
        }
    }

    #[test]
    fn wide_store_borrows_columns_zero_copy() {
        // > 65535 node ids forces width 4, the borrowable width. Build
        // a chain graph with ~70k nodes through the raw builder.
        let mut vocab = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            for i in 0..70_000u32 {
                b.uuu(
                    &format!("n{i}"),
                    "next",
                    &format!("n{}", (i + 1) % 70_000),
                );
            }
            b.finish()
        };
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        let reader =
            BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
        let (_, view) = reader.read_view().unwrap();
        assert!(
            view.columns_borrowed(),
            "width-4 LE columns must borrow from the buffer"
        );
        assert_eq!(reader.info().unwrap().mode, Some(LoadMode::Borrow));
        assert_same_edges(&view, g.graph());
        // Borrowed columns keep almost nothing resident: well under the
        // 12 bytes/triple the owned triple vector alone would cost.
        assert!(
            view.resident_bytes() < 6 * view.triple_count(),
            "resident {} for {} triples",
            view.resident_bytes(),
            view.triple_count()
        );
        let (_, owned) = reader.read_graph().unwrap();
        assert!(owned.graph().triples().eq(g.graph().triples()));
    }

    #[test]
    fn mode_strings() {
        assert_eq!(LoadMode::Borrow.to_string(), "borrow");
        assert_eq!(LoadMode::Widen.to_string(), "widen");
    }

    #[test]
    fn wrong_kind_rejected() {
        // The graph's own sections under another kind byte: an archive
        // is the wrong kind, and the sharded-layout kinds are retired.
        let (vocab, g) = sample();
        let bytes = graph_to_bytes(&vocab, &g).unwrap();
        let c = Container::parse(&bytes).unwrap();
        for kind in [crate::KIND_ARCHIVE, 3, 4] {
            let mut w = crate::ContainerWriter::new();
            for (tag, payload) in c.sections() {
                w.section(*tag, payload.to_vec());
            }
            let mut out = Vec::new();
            w.finish(&mut out, kind, c.header().counts).unwrap();
            let reader =
                BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&out));
            for got in [
                reader.read_view().map(|_| ()),
                reader.read_graph().map(|_| ()),
            ] {
                match (kind, got) {
                    (
                        crate::KIND_ARCHIVE,
                        Err(StoreError::WrongContentKind { .. }),
                    ) => {}
                    (3 | 4, Err(StoreError::RetiredKind { found })) => {
                        assert_eq!(found, kind)
                    }
                    (kind, other) => panic!("kind {kind}: got {other:?}"),
                }
            }
        }
    }
}
