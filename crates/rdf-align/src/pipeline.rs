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
    verify_deblank,
};
use crate::overlap_align::{overlap_align_with, OverlapConfig};
use crate::partition::{NodeKinds, Partition, SideCounts};
use crate::refine::Unstable;
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
        Method::Overlap(OverlapConfig { theta })
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
    match align_combined(
        Some(vocab),
        combined,
        method,
        threads,
        recorder,
        false,
    ) {
        Ok(aligned) => aligned,
        Err(_) => unreachable!("a run that certifies nothing cannot fail"),
    }
}

/// Align a built union of two versions with the chosen method: the
/// alignment of a held union, which builds nothing before refinement.
/// `texts` holds the text of every label of the union; only overlap
/// reads it (the words of unaligned literals), so the other methods may
/// be given `None`. Emits `align.method` and `align.metrics` spans;
/// `align.method` covers the method's whole run: its set-up (initial
/// partitions, `UN(λ)`, blank-out) and its `refine.fixpoint` runs.
///
/// With `verify`, every fixpoint the method reached is certified by
/// [`crate::refine::verify_stable`] inside `align.method`
/// ([`verify_deblank`], [`crate::HybridOutcome::verify`]), and an
/// unstable one is the error. Only Deblank and Hybrid can be verified:
/// Trivial runs no refinement, and Overlap's weighted fixpoints have no
/// certificate, so `verify` with either panics, and so does Overlap
/// without `texts`. Without `verify` the call cannot fail.
///
/// One [`RefineEngine`] is built here and reused across every
/// refinement stage of the chosen method, and dropped before the
/// metrics. The result is bit-identical for every thread count and
/// every recorder.
pub fn align_combined(
    texts: Option<&Vocab>,
    combined: CombinedGraph,
    method: Method,
    threads: Threads,
    recorder: Arc<Recorder>,
    verify: bool,
) -> Result<Aligned, Unstable> {
    assert!(
        !verify || matches!(method, Method::Deblank | Method::Hybrid),
        "only deblank and hybrid fixpoints can be verified"
    );
    let rec = Arc::clone(&recorder);
    let weighted = {
        let mut engine = RefineEngine::with_recorder(threads, recorder);
        let mut sp = rec.span("align.method");
        if sp.enabled() {
            sp.field("method", method.name());
        }
        match method {
            Method::Trivial => {
                WeightedPartition::zero(trivial_partition(&combined))
            }
            Method::Deblank => {
                let out = deblank_partition_with(&combined, &mut engine);
                if verify {
                    verify_deblank(&combined, &out.partition)?;
                }
                WeightedPartition::zero(out.partition)
            }
            Method::Hybrid => {
                let out = hybrid_partition_with(&combined, &mut engine);
                if verify {
                    out.verify(&combined)?;
                }
                WeightedPartition::zero(out.partition)
            }
            Method::Overlap(cfg) => {
                let texts = texts.expect("overlap reads label texts");
                overlap_align_with(&combined, texts, cfg, &mut engine)
                    .weighted
            }
        }
    };
    let mut sp = rec.span("align.metrics");
    let edges = edge_stats(&weighted.partition, &combined);
    let (p, g) = (&weighted.partition, combined.graph());
    let counts = SideCounts::new(p, &combined);
    let nodes = counts.node_counts();
    let unaligned = counts.unaligned(p, g, NodeKinds::All, g.nodes());
    if sp.enabled() {
        sp.field("unaligned", unaligned.len());
    }
    drop(sp);
    Ok(Aligned {
        combined,
        weighted,
        edges,
        nodes,
        unaligned,
    })
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
