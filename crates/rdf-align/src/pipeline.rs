//! One-call alignment pipeline: pick a method, get an alignment report.
//!
//! This is the "downstream user" API: wraps graph union, method
//! dispatch, and the §5 metrics into a single call. A caller that
//! already holds the union (the CLI, which loads its inputs straight
//! into one) calls [`align_combined`].

use crate::engine::RefineEngine;
use crate::metrics::{edge_stats, EdgeStats, NodeCounts};
use crate::methods::{
    deblank_partition_with, hybrid_partition_with, trivial_partition,
};
use crate::overlap_align::{overlap_align_with, OverlapConfig};
use crate::partition::{NodeTally, Partition};
use crate::weighted::WeightedPartition;
use rdf_model::{CombinedGraph, NodeId, RdfGraph, Vocab};
use rdf_obs::Recorder;
use rdf_par::Threads;
use std::sync::Arc;

/// Which alignment method to run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Method {
    /// Label equality (§3.1).
    Trivial,
    /// Bisimulation on blank nodes (§3.3).
    Deblank,
    /// Bisimulation on unaligned non-literals (§3.4).
    #[default]
    Hybrid,
    /// Weighted partitions + overlap heuristic (§4.7), with threshold θ.
    Overlap(OverlapConfig),
}

impl Method {
    /// The default Overlap method (θ = 0.65).
    pub fn overlap() -> Self {
        Method::Overlap(OverlapConfig::default())
    }

    /// The method's name as the CLI spells it (`trivial`, `deblank`,
    /// `hybrid`, `overlap`).
    pub fn name(&self) -> &'static str {
        match self {
            Method::Trivial => "trivial",
            Method::Deblank => "deblank",
            Method::Hybrid => "hybrid",
            Method::Overlap(_) => "overlap",
        }
    }

    /// Overlap with a specific threshold.
    pub fn overlap_with_theta(theta: f64) -> Self {
        Method::Overlap(OverlapConfig {
            theta,
            ..OverlapConfig::default()
        })
    }
}

/// Result of aligning two versions.
pub struct Aligned {
    /// The combined graph the partition refers to.
    pub combined: CombinedGraph,
    /// The final (weighted) partition; weights are all zero for the
    /// partition-only methods.
    pub weighted: WeightedPartition,
    /// Edge-level statistics.
    pub edges: EdgeStats,
    /// Node-level statistics (non-literal nodes).
    pub nodes: NodeCounts,
    /// Nodes of either side left unaligned.
    pub unaligned: Vec<NodeId>,
}

impl Aligned {
    /// The plain partition.
    pub fn partition(&self) -> &Partition {
        &self.weighted.partition
    }

    /// Whether a source-local / target-local node pair is aligned.
    pub fn contains(&self, source: NodeId, target: NodeId) -> bool {
        self.weighted.partition.same_class(
            self.combined.from_source(source),
            self.combined.from_target(target),
        )
    }
}

/// Align two graph versions (sharing `vocab`) with the chosen method,
/// on the default (auto) thread configuration.
pub fn align(
    vocab: &Vocab,
    source: &RdfGraph,
    target: &RdfGraph,
    method: Method,
) -> Aligned {
    align_with(vocab, source, target, method, Threads::Auto)
}

/// Align two graph versions with an explicit thread configuration.
///
/// One [`RefineEngine`] is built here and reused across every
/// refinement stage of the chosen method; its output is bit-identical
/// for every thread count, so `threads` is purely a performance knob.
pub fn align_with(
    vocab: &Vocab,
    source: &RdfGraph,
    target: &RdfGraph,
    method: Method,
    threads: Threads,
) -> Aligned {
    align_with_recorder(
        vocab,
        source,
        target,
        method,
        threads,
        Arc::new(Recorder::disabled()),
    )
}

/// As [`align_with`], with an instrumentation recorder threaded through
/// the refinement engine (per-fixpoint and per-round spans) and
/// the pipeline stages: the union is built inside one `align.union`
/// span, then [`align_combined`] runs.
///
/// Tracing is inert: the returned alignment is bit-identical to
/// [`align_with`] for every recorder.
pub fn align_with_recorder(
    vocab: &Vocab,
    source: &RdfGraph,
    target: &RdfGraph,
    method: Method,
    threads: Threads,
    recorder: Arc<Recorder>,
) -> Aligned {
    let combined = {
        let mut sp = recorder.span("align.union");
        let combined = CombinedGraph::union(vocab, source, target);
        if sp.enabled() {
            sp.field("nodes", combined.graph().node_count());
            sp.field("triples", combined.graph().triple_count());
        }
        combined
    };
    align_combined(vocab, combined, method, threads, recorder)
}

/// Align a built union of two versions (sharing `vocab`) with the
/// chosen method: the alignment of a held union, which builds nothing
/// before refinement. Emits `align.method` and `align.metrics` spans;
/// `align.method` covers the method's whole run: its set-up (initial
/// partitions, `UN(λ)`, blank-out) and its `refine.fixpoint` runs.
///
/// One [`RefineEngine`] is built here and reused across every
/// refinement stage of the chosen method. The result is bit-identical
/// for every thread count and every recorder.
pub fn align_combined(
    vocab: &Vocab,
    combined: CombinedGraph,
    method: Method,
    threads: Threads,
    recorder: Arc<Recorder>,
) -> Aligned {
    let rec = Arc::clone(&recorder);
    let mut engine = RefineEngine::with_recorder(threads, recorder);
    let weighted = {
        let mut sp = rec.span("align.method");
        if sp.enabled() {
            sp.field("method", method.name());
        }
        match method {
            Method::Trivial => {
                WeightedPartition::zero(trivial_partition(&combined))
            }
            Method::Deblank => WeightedPartition::zero(
                deblank_partition_with(&combined, &mut engine).partition,
            ),
            Method::Hybrid => WeightedPartition::zero(
                hybrid_partition_with(&combined, &mut engine).partition,
            ),
            Method::Overlap(cfg) => {
                overlap_align_with(&combined, vocab, cfg, &mut engine)
                    .weighted
            }
        }
    };
    let mut sp = rec.span("align.metrics");
    let edges = edge_stats(&weighted.partition, &combined);
    let tally = NodeTally::new(&weighted.partition, &combined);
    let nodes = tally.node_counts();
    let unaligned = tally.unaligned(&weighted.partition, &combined);
    if sp.enabled() {
        sp.field("unaligned", unaligned.len());
    }
    drop(sp);
    Aligned {
        combined,
        weighted,
        edges,
        nodes,
        unaligned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::RdfGraphBuilder;

    fn versions() -> (Vocab, RdfGraph, RdfGraph) {
        let mut vocab = Vocab::new();
        let v1 = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uul("old:x", "p", "shared value one");
            b.uul("old:x", "q", "shared value two");
            b.finish()
        };
        let v2 = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uul("new:x", "p", "shared value one");
            b.uul("new:x", "q", "shared value two");
            b.finish()
        };
        (vocab, v1, v2)
    }

    #[test]
    fn method_progression() {
        let (vocab, v1, v2) = versions();
        let t = align(&vocab, &v1, &v2, Method::Trivial);
        let h = align(&vocab, &v1, &v2, Method::Hybrid);
        assert!(t.nodes.aligned_classes < h.nodes.aligned_classes);
        assert!(t.edges.ratio() < h.edges.ratio());
        assert!(!t.unaligned.is_empty());
        // Hybrid aligns the renamed URI.
        assert!(h.contains(NodeId(0), NodeId(0)));
        assert!(!t.contains(NodeId(0), NodeId(0)));
    }

    #[test]
    fn overlap_method_runs() {
        let (vocab, v1, v2) = versions();
        let o = align(&vocab, &v1, &v2, Method::overlap());
        assert!(o.edges.ratio() >= 0.99);
        let o2 = align(&vocab, &v1, &v2, Method::overlap_with_theta(0.4));
        assert!(o2.edges.ratio() >= o.edges.ratio() - 1e-12);
    }

    #[test]
    fn default_method_is_hybrid() {
        assert_eq!(Method::default(), Method::Hybrid);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (vocab, v1, v2) = versions();
        for method in [Method::Trivial, Method::Deblank, Method::Hybrid] {
            let one =
                align_with(&vocab, &v1, &v2, method, Threads::Fixed(1));
            let four =
                align_with(&vocab, &v1, &v2, method, Threads::Fixed(4));
            assert_eq!(
                one.partition().colors(),
                four.partition().colors(),
                "{method:?} diverged across thread counts"
            );
            assert_eq!(one.edges.ratio(), four.edges.ratio());
            assert_eq!(one.unaligned, four.unaligned);
        }
    }
}
