//! Triple-graph data model for RDF alignment.
//!
//! This crate implements §2.1 of *RDF Graph Alignment with Bisimulation*
//! (Buneman & Staworko, PVLDB 9(12), 2016): triple graphs whose nodes are
//! dense identifiers and whose labels `I = U ∪ L ∪ {⊥b}` are interned in a
//! shared [`Vocab`], RDF-convention enforcement, disjoint unions of two
//! versions, and per-version statistics.
//!
//! # Quick tour
//!
//! ```
//! use rdf_model::{Vocab, RdfGraphBuilder, CombinedGraph, GraphStats};
//!
//! let mut vocab = Vocab::new();
//! let v1 = {
//!     let mut b = RdfGraphBuilder::new(&mut vocab);
//!     b.uub("ss", "address", "b1");
//!     b.bul("b1", "zip", "EH8");
//!     b.finish()
//! };
//! let v2 = {
//!     let mut b = RdfGraphBuilder::new(&mut vocab);
//!     b.uub("ss", "address", "b3");
//!     b.bul("b3", "zip", "EH8");
//!     b.finish()
//! };
//! let combined = CombinedGraph::union(&vocab, &v1, &v2);
//! assert_eq!(combined.graph().node_count(), 10);
//! let stats = GraphStats::of(v1.graph());
//! assert_eq!(stats.blanks, 1);
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod hash;
pub mod label;
pub mod rdf;
pub mod stats;
pub mod truth;
pub mod union;
pub mod view;

pub use graph::{
    GraphAppender, GraphBuilder, NodeId, OutColumns, OutEdges, OutIter,
    PartAppender,
    RawPartsError, Triple, TripleGraph, Triples,
};
pub use view::{
    label_ids_from_le_bytes, node_ids_from_le_bytes, u32s_from_le_bytes,
    TripleGraphView, ViewError,
};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use label::{label_hash, LabelId, LabelKind, LabelRef, Vocab};
pub use rdf::{
    rebase_into, RdfError, RdfGraph, RdfGraphBuilder, SortedGraph, Term,
};
pub use stats::GraphStats;
pub use truth::GroundTruth;
pub use union::{CombinedGraph, Side};
