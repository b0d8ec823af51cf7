//! [`BorrowedStoreReader`]: the one graph-store reader, over one
//! [`StoreBuf`].
//!
//! A [`StoreBuf`] (mapped file or aligned owned buffer) is parsed in
//! place — one [`Container::parse`] per call — and the fixed-width
//! `NODE`/`TRPL` columns are read straight from it. Every column is
//! **borrowed from the file bytes** when it is 4 bytes wide on a
//! little-endian host; narrower columns are widened into owned
//! vectors. Three entry points share those checked columns:
//!
//! * [`BorrowedStoreReader::info`] — header, section sizes and the load
//!   mode, for `rdf info`;
//! * [`BorrowedStoreReader::view_in`] — a [`TripleGraphView`] whose
//!   columns borrow from the buffer, for `rdf info --bisim`; it walks
//!   `DICT` for the label kinds and interns nothing;
//! * [`BorrowedStoreReader::read_graph_into`] — the columns plus
//!   `BNAM` decoded into an owned [`RdfGraph`] whose labels are
//!   interned straight into a caller's [`Vocab`], for `align`
//!   (one-shot and served) and `export`.
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
use crate::graph_store::{
    decode_bnam, dict_entry, dict_section_kinds, join_dict_section,
    section_span, TAG_BNAM, TAG_DICT, TAG_NODE, TAG_TRPL,
};
use crate::mmap::StoreBuf;
use rdf_model::{
    label_ids_from_le_bytes, node_ids_from_le_bytes, LabelId, NodeId,
    RdfGraph, Triple, TripleGraph, TripleGraphView, Vocab,
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
/// widened.
struct Columns<'a> {
    labels: Cow<'a, [LabelId]>,
    spo: [Cow<'a, [NodeId]>; 3],
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
/// assert_eq!(view.labels(), g.graph().labels_raw());
/// assert!(vocab2.find_uri("address").is_some());
/// let (_, owned) = reader.read_graph().unwrap();
/// assert_eq!(owned.graph().triples(), g.graph().triples());
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
    /// [`StoreError::RetiredLayout`].
    pub fn container(
        &self,
        rec: &Recorder,
    ) -> Result<Container<'_>, StoreError> {
        let bytes = self.buf.as_slice();
        let mut open = rec.span("store.open");
        open.field("bytes", bytes.len());
        let c = Container::parse(bytes)?;
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
        let mut vocab = Vocab::new();
        let dict_body = c.section(TAG_DICT)?;
        join_dict_section(dict_body, c.header().counts[0], &mut vocab)?;
        Ok((vocab, view))
    }

    /// Serve the graph of an already-parsed container as a view, so a
    /// caller holding the parse pays no second checksum pass. Emits one
    /// `store.section` span per section touched (`DICT`, `NODE`,
    /// `TRPL` — a view never decodes `BNAM`).
    ///
    /// No label is interned: the per-label kinds come from a walk of
    /// `DICT` that validates kind tags, UTF-8, the count and the
    /// padding, and the view's label ids are the store's dictionary
    /// ids.
    pub fn view_in<'a>(
        c: &Container<'a>,
        rec: &Recorder,
    ) -> Result<TripleGraphView<'a>, StoreError> {
        let dict_body = graph_section(c, TAG_DICT)?;
        let dict_kinds = {
            let _sp = section_span(rec, "DICT", dict_body.len());
            dict_section_kinds(dict_body, c.header().counts[0])?
        };
        let Columns {
            labels,
            spo: [s, p, o],
        } = columns(c, rec)?;
        let kinds = labels
            .iter()
            .map(|&l| dict_entry(&dict_kinds, l))
            .collect::<Result<Vec<_>, _>>()?;
        TripleGraphView::from_sorted_columns(labels, kinds, s, p, o)
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

    /// Load the graph with its labels interned straight into `vocab`,
    /// the session vocabulary: the mapped `DICT` is walked as borrowed
    /// text, each entry is interned with one hash, and the `NODE`
    /// column is rewritten through the resulting id map. The graph
    /// equals [`rdf_model::rebase_into`] of [`read_graph`] into the same
    /// vocabulary, without building the store's own vocabulary first.
    ///
    /// Emits one `store.open` span (the container parse: framing plus
    /// every section CRC) and one `store.section` span per section
    /// body; the `DICT` span carries `labels_new` and `labels_shared`.
    /// Every check of the owned decode applies, each a typed
    /// [`StoreError`]. On error `vocab` keeps any labels interned
    /// before the error was found.
    ///
    /// [`read_graph`]: BorrowedStoreReader::read_graph
    pub fn read_graph_into(
        &self,
        vocab: &mut Vocab,
        rec: &Recorder,
    ) -> Result<RdfGraph, StoreError> {
        let c = self.container(rec)?;
        let dict_body = graph_section(&c, TAG_DICT)?;
        let map = {
            let mut sp = section_span(rec, "DICT", dict_body.len());
            let join =
                join_dict_section(dict_body, c.header().counts[0], vocab)?;
            sp.field("labels_new", join.new);
            sp.field("labels_shared", join.shared());
            join.map
        };
        let Columns {
            labels: store_labels,
            spo: [s, p, o],
        } = columns(&c, rec)?;
        let mut labels = Vec::with_capacity(store_labels.len());
        let mut kinds = Vec::with_capacity(store_labels.len());
        for &l in store_labels.iter() {
            let id = dict_entry(&map, l)?;
            labels.push(id);
            kinds.push(vocab.kind(id));
        }
        drop((store_labels, map));
        let mut triples = Vec::with_capacity(s.len());
        for j in 0..s.len() {
            let t = Triple::new(s[j], p[j], o[j]);
            if triples.last().is_some_and(|prev| *prev >= t) {
                return Err(StoreError::Corrupt(format!(
                    "fixed TRPL section: triples not strictly ascending \
                     at record {j}"
                )));
            }
            triples.push(t);
        }
        drop((s, p, o));
        let graph = TripleGraph::from_raw_parts(labels, kinds, triples)
            .map_err(|e| StoreError::Corrupt(e.to_string()))?;
        let bnam_body = c.section(TAG_BNAM)?;
        let blank_names = {
            let _sp = section_span(rec, "BNAM", bnam_body.len());
            decode_bnam(bnam_body, graph.node_count())?
        };
        Ok(RdfGraph::from_raw_parts(graph, blank_names))
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
    let labels = {
        let _sp = section_span(rec, "NODE", node_body.len());
        let fb = parse_fixed_body(
            node_body,
            1,
            Some(header.counts[1]),
            "fixed NODE section",
        )?;
        id_column(node_body, &fb, 0, label_ids_from_le_bytes, LabelId, rec)
    };

    let trpl_body = c.section(TAG_TRPL)?;
    let spo = {
        let _sp = section_span(rec, "TRPL", trpl_body.len());
        let fb = parse_fixed_body(
            trpl_body,
            3,
            Some(header.counts[2]),
            "fixed TRPL section",
        )?;
        [0, 1, 2].map(|i| {
            id_column(trpl_body, &fb, i, node_ids_from_le_bytes, NodeId, rec)
        })
    };
    Ok(Columns { labels, spo })
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
    use rdf_model::RdfGraphBuilder;

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
        assert_eq!(view.labels(), g.graph().labels_raw());
        assert_eq!(view.kinds(), g.graph().kinds_raw());
        assert_eq!(view.to_graph().triples(), g.graph().triples());
        assert_eq!(owned.graph().triples(), g.graph().triples());
        assert_eq!(owned.graph().labels_raw(), view.labels());
        assert_eq!(v2.len(), owned_v.len());
        // Small ids -> width 1/2 -> widen, never borrow.
        assert!(!view.columns_borrowed());
        assert_eq!(reader.info().unwrap().mode, Some(LoadMode::Widen));

        let mut v1 = bytes.clone();
        v1[4] = 1;
        let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&v1));
        assert!(matches!(
            reader.read_view(),
            Err(StoreError::RetiredLayout { version: 1 })
        ));
        assert!(matches!(
            reader.read_graph(),
            Err(StoreError::RetiredLayout { version: 1 })
        ));
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
        assert_eq!(view.to_graph().triples(), g.graph().triples());
        // Borrowed columns keep almost nothing resident: well under the
        // 12 bytes/triple the owned triple vector alone would cost.
        assert!(
            view.resident_bytes() < 6 * view.triple_count(),
            "resident {} for {} triples",
            view.resident_bytes(),
            view.triple_count()
        );
        let (_, owned) = reader.read_graph().unwrap();
        assert_eq!(owned.graph().triples(), g.graph().triples());
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
