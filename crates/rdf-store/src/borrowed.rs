//! [`BorrowedStoreReader`]: serve a graph *view* out of a store buffer
//! without materialising owned triple vectors.
//!
//! This is the read side of the zero-copy load path: a [`StoreBuf`]
//! (mapped file or aligned owned buffer) is parsed in place, and the
//! `NODE`/`TRPL` columns of a fixed-layout (v2) store are handed out
//! as [`rdf_model::TripleGraphView`] columns that **borrow the file
//! bytes** whenever they are 4 bytes wide on a little-endian host —
//! narrower columns are widened into owned vectors, still with zero
//! varint work. Varint (v1) stores are served through the same API by
//! decoding into owned columns, so callers (`rdf info --bisim`) need
//! one code path for both layouts.
//!
//! The view borrows from the reader, which the borrow checker turns
//! into the safety property that matters: a view can never outlive the
//! buffer (mapping) backing it. See the compile-fail example on
//! [`BorrowedStoreReader`].

use crate::container::{Container, Layout, KIND_GRAPH};
use crate::error::StoreError;
use crate::fixed::{fixed_column, parse_fixed_body, widen_column};
use crate::graph_store::{
    decode_dict_checked, decode_node, decode_trpl, kinds_for_labels,
    section_span, TAG_DICT, TAG_NODE, TAG_TRPL,
};
use crate::mmap::StoreBuf;
use rdf_model::{
    label_ids_from_le_bytes, node_ids_from_le_bytes, LabelId, NodeId,
    TripleGraphView, Vocab,
};
use rdf_obs::Recorder;
use std::borrow::Cow;
use std::path::Path;

/// How a reader materialised a store's id columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Fixed layout, 4-byte columns served as slices of the buffer.
    Borrow,
    /// Fixed layout, 1/2-byte columns widened to owned `u32`s (no
    /// varint work).
    Widen,
    /// Varint layout, full delta decode into owned columns.
    Decode,
}

impl std::fmt::Display for LoadMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LoadMode::Borrow => "borrow",
            LoadMode::Widen => "widen",
            LoadMode::Decode => "decode",
        })
    }
}

/// A graph store opened over a [`StoreBuf`] for borrowed (zero-copy)
/// views.
///
/// ```
/// use rdf_model::{RdfGraphBuilder, Vocab};
/// use rdf_store::{
///     graph_to_bytes_layout, BorrowedStoreReader, Layout, StoreBuf,
/// };
///
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("ss", "address", "b1");
///     b.bul("b1", "zip", "EH8");
///     b.finish()
/// };
/// let bytes = graph_to_bytes_layout(&vocab, &g, Layout::Fixed).unwrap();
/// let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
/// let (vocab2, view) = reader.read_view().unwrap();
/// assert_eq!(view.triple_count(), g.triple_count());
/// assert_eq!(view.labels(), g.graph().labels_raw());
/// assert!(vocab2.find_uri("address").is_some());
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

    /// Decode the dictionary and serve the graph as a view whose
    /// columns borrow from the buffer when the layout allows it.
    pub fn read_view(
        &self,
    ) -> Result<(Vocab, TripleGraphView<'_>), StoreError> {
        self.read_view_traced(&Recorder::disabled())
    }

    /// [`BorrowedStoreReader::read_view`] with instrumentation: one
    /// `store.open` span (bytes, layout) plus one `store.section` span
    /// per section touched (`DICT`, `NODE`, `TRPL` — a view never
    /// decodes `BNAM`). The view is identical to the untraced one.
    pub fn read_view_traced(
        &self,
        rec: &Recorder,
    ) -> Result<(Vocab, TripleGraphView<'_>), StoreError> {
        let bytes = self.buf.as_slice();
        let mut open = rec.span("store.open");
        open.field("bytes", bytes.len());
        let c = Container::parse(bytes)?;
        let layout = c.header().layout();
        open.field("layout", layout.to_string());
        drop(open);
        let header = *c.header();
        if header.kind != KIND_GRAPH {
            return Err(StoreError::WrongContentKind {
                found: header.kind,
                expected: KIND_GRAPH,
            });
        }

        let dict_body = c.section(TAG_DICT)?;
        let vocab = {
            let _sp = section_span(rec, "DICT", dict_body.len(), layout);
            decode_dict_checked(dict_body, Some(header.counts[0]), layout)?
        };

        let node_body = c.section(TAG_NODE)?;
        let labels: Cow<'_, [LabelId]> = {
            let _sp = section_span(rec, "NODE", node_body.len(), layout);
            match layout {
                Layout::Varint => Cow::Owned(
                    decode_node(
                        node_body,
                        &vocab,
                        Some(header.counts[1]),
                        layout,
                    )?
                    .0,
                ),
                Layout::Fixed => {
                    let fb = parse_fixed_body(
                        node_body,
                        1,
                        Some(header.counts[1]),
                        "fixed NODE section",
                    )?;
                    let col = fixed_column(node_body, &fb, 0);
                    match label_ids_from_le_bytes(col) {
                        Some(ids) if fb.width == 4 => Cow::Borrowed(ids),
                        _ => {
                            rec.counter("store.widen").add(1);
                            Cow::Owned(
                                widen_column(col, fb.width)
                                    .into_iter()
                                    .map(LabelId)
                                    .collect(),
                            )
                        }
                    }
                }
            }
        };
        let kinds = kinds_for_labels(&labels, &vocab)?;

        let trpl_body = c.section(TAG_TRPL)?;
        let (s, p, o) = {
            let _sp = section_span(rec, "TRPL", trpl_body.len(), layout);
            match layout {
                Layout::Varint => {
                    let triples = decode_trpl(
                        trpl_body,
                        Some(header.counts[2]),
                        layout,
                    )?;
                    let s: Vec<NodeId> =
                        triples.iter().map(|t| t.s).collect();
                    let p: Vec<NodeId> =
                        triples.iter().map(|t| t.p).collect();
                    let o: Vec<NodeId> =
                        triples.iter().map(|t| t.o).collect();
                    (Cow::Owned(s), Cow::Owned(p), Cow::Owned(o))
                }
                Layout::Fixed => {
                    let fb = parse_fixed_body(
                        trpl_body,
                        3,
                        Some(header.counts[2]),
                        "fixed TRPL section",
                    )?;
                    let mut cols = (0..3).map(|i| {
                        let col = fixed_column(trpl_body, &fb, i);
                        match node_ids_from_le_bytes(col) {
                            Some(ids) if fb.width == 4 => {
                                Cow::Borrowed(ids)
                            }
                            _ => {
                                rec.counter("store.widen").add(1);
                                Cow::Owned(
                                    widen_column(col, fb.width)
                                        .into_iter()
                                        .map(NodeId)
                                        .collect::<Vec<_>>(),
                                )
                            }
                        }
                    });
                    let (s, p, o) = (
                        cols.next().unwrap(),
                        cols.next().unwrap(),
                        cols.next().unwrap(),
                    );
                    (s, p, o)
                }
            }
        };

        let view =
            TripleGraphView::from_sorted_columns(labels, kinds, s, p, o)
                .map_err(|e| StoreError::Corrupt(e.to_string()))?;
        Ok((vocab, view))
    }

    /// The [`LoadMode`] a `read_view` of this store used: `decode` for
    /// varint stores, `borrow`/`widen` for fixed stores depending on
    /// whether every triple column could be served from the buffer.
    pub fn load_mode(
        layout: Layout,
        view: &TripleGraphView<'_>,
    ) -> LoadMode {
        match layout {
            Layout::Varint => LoadMode::Decode,
            Layout::Fixed if view.columns_borrowed() => LoadMode::Borrow,
            Layout::Fixed => LoadMode::Widen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_store::{graph_to_bytes, graph_to_bytes_layout};
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

    #[test]
    fn view_matches_owned_load_both_layouts() {
        let (vocab, g) = sample();
        for layout in [Layout::Varint, Layout::Fixed] {
            let bytes = graph_to_bytes_layout(&vocab, &g, layout).unwrap();
            let reader =
                BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
            let (v2, view) = reader.read_view().unwrap();
            assert_eq!(view.node_count(), g.node_count());
            assert_eq!(view.triple_count(), g.triple_count());
            assert_eq!(view.labels(), g.graph().labels_raw());
            assert_eq!(view.kinds(), g.graph().kinds_raw());
            let back = view.to_graph();
            assert_eq!(back.triples(), g.graph().triples());
            assert_eq!(v2.len(), {
                let (owned_v, _) =
                    crate::StoreReader::from_bytes(bytes.clone())
                        .read_graph()
                        .unwrap();
                owned_v.len()
            });
            // Small ids -> width 1/2 -> widen (never borrow) for fixed.
            let mode = BorrowedStoreReader::load_mode(layout, &view);
            match layout {
                Layout::Varint => assert_eq!(mode, LoadMode::Decode),
                Layout::Fixed => assert_eq!(mode, LoadMode::Widen),
            }
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
        let bytes =
            graph_to_bytes_layout(&vocab, &g, Layout::Fixed).unwrap();
        let reader =
            BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
        let (_, view) = reader.read_view().unwrap();
        assert!(
            view.columns_borrowed(),
            "width-4 LE columns must borrow from the buffer"
        );
        assert_eq!(
            BorrowedStoreReader::load_mode(Layout::Fixed, &view),
            LoadMode::Borrow
        );
        assert_eq!(view.to_graph().triples(), g.graph().triples());
        // Borrowed columns keep almost nothing resident: well under the
        // 12 bytes/triple the owned triple vector alone would cost.
        assert!(
            view.resident_bytes() < 6 * view.triple_count(),
            "resident {} for {} triples",
            view.resident_bytes(),
            view.triple_count()
        );
    }

    #[test]
    fn mode_strings() {
        assert_eq!(LoadMode::Borrow.to_string(), "borrow");
        assert_eq!(LoadMode::Widen.to_string(), "widen");
        assert_eq!(LoadMode::Decode.to_string(), "decode");
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
            match (kind, reader.read_view().map(|_| ())) {
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
