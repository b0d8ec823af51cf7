//! Borrowed graph views: a [`TripleGraph`]-shaped read surface whose
//! columns may borrow from an external byte buffer instead of owning
//! copies — the model half of the zero-copy store load path.
//!
//! The fixed-width `.rdfb` layout (container version 2, `docs/FORMAT.md` §3)
//! stores the `NODE` label array and the `TRPL` subject/predicate/
//! object columns as padded little-endian fixed-width arrays. When a
//! column is 4 bytes wide and the buffer is aligned, the reader hands
//! it out as a `&[NodeId]`/`&[LabelId]` slice *borrowing the file
//! bytes* (see the cast helpers below); narrower columns are widened
//! into owned vectors — still without any varint decode. Either way
//! the result is a [`TripleGraphView`], which serves the same
//! [`OutColumns`] the refinement engine consumes from a resident
//! graph, so `info --bisim` can run straight off the buffer.
//!
//! The casts rely on two invariants, both stated at the type
//! definitions: [`NodeId`] and [`LabelId`] are `repr(transparent)`
//! over `u32`, and the reinterpretation is only offered on
//! little-endian targets (big-endian callers get `None` and fall back
//! to widening).

use crate::graph::{NodeId, OutColumns, RawPartsError, Triple, TripleGraph};
use crate::label::{LabelId, LabelKind};
use std::borrow::Cow;

/// Reinterpret little-endian bytes as a `u32` slice without copying.
///
/// Returns `None` — callers fall back to an owned widening copy — when
/// the target is big-endian, the length is not a multiple of 4, or the
/// buffer is not 4-byte aligned.
pub fn u32s_from_le_bytes(bytes: &[u8]) -> Option<&[u32]> {
    if cfg!(target_endian = "big") || !bytes.len().is_multiple_of(4) {
        return None;
    }
    // SAFETY: u32 has no invalid bit patterns, the length is a multiple
    // of the element size, and `align_to` returns a non-empty prefix or
    // suffix exactly when the buffer is misaligned — which we reject.
    #[allow(unsafe_code)]
    let (prefix, mid, suffix) = unsafe { bytes.align_to::<u32>() };
    (prefix.is_empty() && suffix.is_empty()).then_some(mid)
}

/// Reinterpret little-endian bytes as a [`NodeId`] slice without
/// copying. Same conditions as [`u32s_from_le_bytes`]; sound because
/// `NodeId` is `repr(transparent)` over `u32`.
pub fn node_ids_from_le_bytes(bytes: &[u8]) -> Option<&[NodeId]> {
    let ids = u32s_from_le_bytes(bytes)?;
    // SAFETY: NodeId is repr(transparent) over u32, so the slice types
    // have identical layout and validity.
    #[allow(unsafe_code)]
    Some(unsafe {
        std::slice::from_raw_parts(ids.as_ptr().cast::<NodeId>(), ids.len())
    })
}

/// Reinterpret little-endian bytes as a [`LabelId`] slice without
/// copying. Same conditions as [`u32s_from_le_bytes`]; sound because
/// `LabelId` is `repr(transparent)` over `u32`.
pub fn label_ids_from_le_bytes(bytes: &[u8]) -> Option<&[LabelId]> {
    let ids = u32s_from_le_bytes(bytes)?;
    // SAFETY: LabelId is repr(transparent) over u32, so the slice types
    // have identical layout and validity.
    #[allow(unsafe_code)]
    Some(unsafe {
        std::slice::from_raw_parts(ids.as_ptr().cast::<LabelId>(), ids.len())
    })
}

/// A read-only triple graph whose label and triple columns may borrow
/// from an external buffer (a mapped or owned store image) instead of
/// owning copies.
///
/// Compared to a resident [`TripleGraph`] the view keeps no
/// `Vec<Triple>` and no `(p, o)` pair array: the columns *are* the
/// adjacency, and the only always-owned pieces are the `n + 1` CSR
/// offsets (rebuilt in one counting pass over the subject column) and
/// the per-node kind array. [`TripleGraphView::out_columns`] serves
/// the refinement engine without further copying.
#[derive(Debug)]
pub struct TripleGraphView<'a> {
    labels: Cow<'a, [LabelId]>,
    kinds: Vec<LabelKind>,
    offsets: Vec<u32>,
    subjects: Cow<'a, [NodeId]>,
    preds: Cow<'a, [NodeId]>,
    objs: Cow<'a, [NodeId]>,
}

impl<'a> TripleGraphView<'a> {
    /// Assemble a view from per-node labels/kinds and the three triple
    /// columns of a store, validating exactly what
    /// [`TripleGraph::from_raw_parts`] would: equal column lengths,
    /// node ids in range, and the `(s, p, o)` sequence strictly
    /// ascending (sorted *and* duplicate-free — the on-disk contract).
    pub fn from_sorted_columns(
        labels: Cow<'a, [LabelId]>,
        kinds: Vec<LabelKind>,
        subjects: Cow<'a, [NodeId]>,
        preds: Cow<'a, [NodeId]>,
        objs: Cow<'a, [NodeId]>,
    ) -> Result<TripleGraphView<'a>, ViewError> {
        if labels.len() != kinds.len() {
            return Err(ViewError::Raw(RawPartsError::LengthMismatch {
                labels: labels.len(),
                kinds: kinds.len(),
            }));
        }
        let e = subjects.len();
        if preds.len() != e || objs.len() != e {
            return Err(ViewError::ColumnLengthMismatch {
                subjects: e,
                preds: preds.len(),
                objs: objs.len(),
            });
        }
        let n = labels.len() as u32;
        for j in 0..e {
            for node in [subjects[j], preds[j], objs[j]] {
                if node.0 >= n {
                    return Err(ViewError::Raw(
                        RawPartsError::NodeOutOfRange {
                            node: node.0,
                            nodes: n,
                        },
                    ));
                }
            }
            if j > 0 {
                let prev = (subjects[j - 1], preds[j - 1], objs[j - 1]);
                let cur = (subjects[j], preds[j], objs[j]);
                if prev >= cur {
                    return Err(ViewError::Unsorted { at: j });
                }
            }
        }
        let mut offsets = vec![0u32; labels.len() + 1];
        for &s in subjects.iter() {
            offsets[s.index() + 1] += 1;
        }
        for i in 0..labels.len() {
            offsets[i + 1] += offsets[i];
        }
        Ok(TripleGraphView {
            labels,
            kinds,
            offsets,
            subjects,
            preds,
            objs,
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of triples.
    #[inline]
    pub fn triple_count(&self) -> usize {
        self.subjects.len()
    }

    /// The per-node label array (index = node id).
    #[inline]
    pub fn labels(&self) -> &[LabelId] {
        &self.labels
    }

    /// The per-node label-kind array (index = node id).
    #[inline]
    pub fn kinds(&self) -> &[LabelKind] {
        &self.kinds
    }

    /// The subject column, indexed by triple.
    #[inline]
    pub fn subjects(&self) -> &[NodeId] {
        &self.subjects
    }

    /// The predicate column, indexed by triple.
    #[inline]
    pub fn preds(&self) -> &[NodeId] {
        &self.preds
    }

    /// The object column, indexed by triple.
    #[inline]
    pub fn objs(&self) -> &[NodeId] {
        &self.objs
    }

    /// Triple `j` of the sorted sequence.
    #[inline]
    pub fn triple(&self, j: usize) -> Triple {
        Triple::new(self.subjects[j], self.preds[j], self.objs[j])
    }

    /// Whether every triple column (subjects, predicates, objects)
    /// borrows from the external buffer — true exactly when the store
    /// columns were 4 bytes wide and aligned on a little-endian target.
    pub fn columns_borrowed(&self) -> bool {
        matches!(self.subjects, Cow::Borrowed(_))
            && matches!(self.preds, Cow::Borrowed(_))
            && matches!(self.objs, Cow::Borrowed(_))
    }

    /// The grouped-CSR outbound view the refinement engine consumes.
    /// Predicate/object columns are handed through without copying
    /// (the triple sort order groups each subject's edges contiguously
    /// and sorted — exactly the [`TripleGraph::out_columns`] layout).
    pub fn out_columns(&self) -> OutColumns<'_> {
        OutColumns::from_parts(
            Cow::Borrowed(self.offsets.as_slice()),
            Cow::Borrowed(&*self.preds),
            Cow::Borrowed(&*self.objs),
        )
        .expect("view CSR validated on construction")
    }

    /// Heap bytes the view keeps resident (owned columns, kinds and
    /// offsets; borrowed columns cost nothing here) — the bytes the
    /// zero-copy path saves show up as the gap between this and
    /// [`TripleGraphView::to_graph`]'s materialisation.
    pub fn resident_bytes(&self) -> usize {
        #[allow(clippy::ptr_arg)]
        fn cow_bytes<T: Clone>(c: &Cow<'_, [T]>) -> usize {
            match c {
                Cow::Borrowed(_) => 0,
                Cow::Owned(v) => std::mem::size_of::<T>() * v.len(),
            }
        }
        cow_bytes(&self.labels)
            + self.kinds.len()
            + 4 * self.offsets.len()
            + cow_bytes(&self.subjects)
            + cow_bytes(&self.preds)
            + cow_bytes(&self.objs)
    }

    /// Materialise a resident [`TripleGraph`] — bit-identical to
    /// loading the same store through the owned decode path.
    pub fn to_graph(&self) -> TripleGraph {
        let triples: Vec<Triple> =
            (0..self.triple_count()).map(|j| self.triple(j)).collect();
        TripleGraph::from_raw_parts(
            self.labels.to_vec(),
            self.kinds.clone(),
            triples,
        )
        .expect("view columns validated on construction")
    }
}

/// Inconsistency detected by [`TripleGraphView::from_sorted_columns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewError {
    /// A violation [`TripleGraph::from_raw_parts`] also detects.
    Raw(RawPartsError),
    /// The three triple columns have different lengths.
    ColumnLengthMismatch {
        /// Length of the subject column.
        subjects: usize,
        /// Length of the predicate column.
        preds: usize,
        /// Length of the object column.
        objs: usize,
    },
    /// The `(s, p, o)` sequence is not strictly ascending at index
    /// `at` (unsorted or duplicate triples).
    Unsorted {
        /// First triple index violating the order.
        at: usize,
    },
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::Raw(e) => e.fmt(f),
            ViewError::ColumnLengthMismatch {
                subjects,
                preds,
                objs,
            } => write!(
                f,
                "triple columns disagree: {subjects} subjects, \
                 {preds} predicates, {objs} objects"
            ),
            ViewError::Unsorted { at } => write!(
                f,
                "triple columns not strictly ascending at triple {at}"
            ),
        }
    }
}

impl std::error::Error for ViewError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::label::Vocab;

    fn sample() -> TripleGraph {
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..9)
            .map(|i| b.add_node(v.uri(&format!("n{i}")), &v))
            .collect();
        for i in 0..9usize {
            for j in 0..9usize {
                if (i * 5 + j) % 3 == 0 && i != j {
                    b.add_triple(nodes[i], nodes[(i + j) % 9], nodes[j]);
                }
            }
        }
        b.freeze()
    }

    fn view_of(g: &TripleGraph) -> TripleGraphView<'static> {
        let (s, p, o): (Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) = (
            g.triples().iter().map(|t| t.s).collect(),
            g.triples().iter().map(|t| t.p).collect(),
            g.triples().iter().map(|t| t.o).collect(),
        );
        TripleGraphView::from_sorted_columns(
            Cow::Owned(g.labels_raw().to_vec()),
            g.kinds_raw().to_vec(),
            Cow::Owned(s),
            Cow::Owned(p),
            Cow::Owned(o),
        )
        .unwrap()
    }

    #[test]
    fn cast_helpers_round_trip_and_reject_misalignment() {
        let vals: Vec<u32> =
            (0..16u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let mut bytes = Vec::new();
        for v in &vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        if cfg!(target_endian = "little") {
            // The Vec<u8> may or may not be 4-aligned; copy into an
            // aligned backing to make the positive case deterministic.
            let mut aligned = vec![0u64; bytes.len() / 8];
            let dst: &mut [u8] = {
                let n = bytes.len();
                // SAFETY: u8 view of initialised u64 storage, same span.
                #[allow(unsafe_code)]
                unsafe {
                    std::slice::from_raw_parts_mut(
                        aligned.as_mut_ptr().cast::<u8>(),
                        n,
                    )
                }
            };
            dst.copy_from_slice(&bytes);
            assert_eq!(u32s_from_le_bytes(dst).unwrap(), vals.as_slice());
            let n: &[NodeId] = node_ids_from_le_bytes(dst).unwrap();
            assert_eq!(n[3], NodeId(vals[3]));
            let l: &[LabelId] = label_ids_from_le_bytes(dst).unwrap();
            assert_eq!(l[5], LabelId(vals[5]));
            // Off-by-one start is misaligned: must refuse, not skew.
            assert!(u32s_from_le_bytes(&dst[1..5]).is_none());
        }
        // A non-multiple-of-4 length is always refused.
        assert!(u32s_from_le_bytes(&bytes[..6]).is_none());
    }

    #[test]
    fn view_serves_graph_identical_columns() {
        let g = sample();
        let v = view_of(&g);
        assert_eq!(v.node_count(), g.node_count());
        assert_eq!(v.triple_count(), g.triple_count());
        assert_eq!(v.labels(), g.labels_raw());
        assert_eq!(v.kinds(), g.kinds_raw());
        for (j, t) in g.triples().iter().enumerate() {
            assert_eq!(v.triple(j), *t);
        }
        // The CSR view agrees edge for edge with the resident graph's.
        let vc = v.out_columns();
        let gc = g.out_columns();
        assert_eq!(vc.offsets(), gc.offsets());
        assert_eq!(vc.preds(), gc.preds());
        assert_eq!(vc.objs(), gc.objs());
        assert!(vc.is_fully_borrowed());
        assert!(!gc.is_fully_borrowed());
        // Materialisation rebuilds the identical graph.
        let g2 = v.to_graph();
        assert_eq!(g2.triples(), g.triples());
        assert_eq!(g2.labels_raw(), g.labels_raw());
        assert!(v.resident_bytes() > 0);
    }

    #[test]
    fn view_rejects_malformed_columns() {
        let g = sample();
        // Unsorted (first and last subject swapped breaks the order).
        let mut s: Vec<NodeId> = g.triples().iter().map(|t| t.s).collect();
        let p: Vec<NodeId> = g.triples().iter().map(|t| t.p).collect();
        let o: Vec<NodeId> = g.triples().iter().map(|t| t.o).collect();
        let last = s.len() - 1;
        s.swap(0, last);
        let err = TripleGraphView::from_sorted_columns(
            Cow::Owned(g.labels_raw().to_vec()),
            g.kinds_raw().to_vec(),
            Cow::Owned(s.clone()),
            Cow::Owned(p.clone()),
            Cow::Owned(o.clone()),
        );
        assert!(matches!(
            err,
            Err(ViewError::Unsorted { .. }) | Err(ViewError::Raw(_))
        ));
        // Length mismatch.
        let err = TripleGraphView::from_sorted_columns(
            Cow::Owned(g.labels_raw().to_vec()),
            g.kinds_raw().to_vec(),
            Cow::Owned(vec![NodeId(0)]),
            Cow::Owned(p.clone()),
            Cow::Owned(o.clone()),
        );
        assert!(matches!(
            err,
            Err(ViewError::ColumnLengthMismatch { .. })
        ));
        // Out-of-range node id.
        let err = TripleGraphView::from_sorted_columns(
            Cow::Owned(g.labels_raw().to_vec()),
            g.kinds_raw().to_vec(),
            Cow::Owned(vec![NodeId(u32::MAX)]),
            Cow::Owned(vec![NodeId(0)]),
            Cow::Owned(vec![NodeId(0)]),
        );
        assert!(matches!(
            err,
            Err(ViewError::Raw(RawPartsError::NodeOutOfRange { .. }))
        ));
    }

    #[test]
    fn empty_view() {
        let v = TripleGraphView::from_sorted_columns(
            Cow::Owned(Vec::new()),
            Vec::new(),
            Cow::Owned(Vec::new()),
            Cow::Owned(Vec::new()),
            Cow::Owned(Vec::new()),
        )
        .unwrap();
        assert_eq!(v.node_count(), 0);
        assert_eq!(v.triple_count(), 0);
        assert!(v.out_columns().is_empty());
        assert_eq!(v.to_graph().triple_count(), 0);
    }
}
