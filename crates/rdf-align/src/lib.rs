//! RDF graph alignment with bisimulation.
//!
//! Implementation of *RDF Graph Alignment with Bisimulation* (Buneman &
//! Staworko, PVLDB 9(12), 2016): given two versions of an evolving RDF
//! graph, find the pairs of nodes that denote the same entity, despite
//! blank nodes, URI renamings and small edits to literals and structure.
//!
//! The methods form a hierarchy of progressively stronger aligners:
//!
//! | method | module | handles |
//! |--------|--------|---------|
//! | Trivial | [`methods::trivial_partition`] | identical URIs/literals |
//! | Deblank | [`methods::deblank_partition`] | blank nodes, via bisimulation |
//! | Hybrid  | [`methods::hybrid_partition`]  | renamed URIs |
//! | Overlap | `overlap_align` | edited literals & structure, via weighted partitions |
//!
//! plus the expensive reference distance `σ_Edit` in the companion crate
//! `rdf-edit`, which Overlap approximates (Theorem 1).
//!
//! ```
//! use rdf_model::{Vocab, RdfGraphBuilder, CombinedGraph};
//! use rdf_align::methods::hybrid_partition;
//!
//! let mut vocab = Vocab::new();
//! let v1 = {
//!     let mut b = RdfGraphBuilder::new(&mut vocab);
//!     b.uul("ed-uni", "name", "University of Edinburgh");
//!     b.finish()
//! };
//! let v2 = {
//!     let mut b = RdfGraphBuilder::new(&mut vocab);
//!     b.uul("uoe", "name", "University of Edinburgh");
//!     b.finish()
//! };
//! let combined = CombinedGraph::union(&vocab, &v1, &v2);
//! let hybrid = hybrid_partition(&combined);
//! // The renamed university URIs end up in the same class.
//! let ed = combined.from_source(rdf_model::NodeId(0));
//! let uoe = combined.from_target(rdf_model::NodeId(0));
//! assert!(hybrid.partition.same_class(ed, uoe));
//! ```

#![deny(missing_docs)]

pub mod align;
pub mod bisim;
pub mod engine;
pub mod enrich;
pub mod metrics;
pub mod methods;
pub mod overlap;
pub mod overlap_align;
pub mod partition;
pub mod pipeline;
pub mod propagate;
pub mod refine;
pub mod variants;
pub mod weighted;

pub use align::AlignmentView;
pub use engine::RefineEngine;
pub use enrich::WeightedBipartite;
pub use pipeline::{
    align, align_combined, align_with, align_with_recorder, Aligned, Method,
};
pub use metrics::{EdgeStats, MatchBreakdown, NodeCounts};
pub use methods::{
    deblank_partition, deblank_partition_with, hybrid_partition,
    hybrid_partition_with, trivial_partition, HybridOutcome,
};
pub use overlap_align::{
    overlap_align, overlap_align_with, OverlapConfig, OverlapOutcome,
};
pub use partition::{ColorId, Partition};
pub use propagate::{propagate, PropagateConfig};
pub use refine::{
    bisimulation_partition, label_partition, label_partition_from,
    RefineOutcome,
};
pub use weighted::WeightedPartition;
// The thread-count knob of the engine, re-exported so downstream crates
// (CLI, figure harness) need not depend on rdf-par directly.
pub use rdf_par::Threads;
// The instrumentation handle the engines accept, re-exported for the
// same reason.
pub use rdf_obs::Recorder;
