//! Evaluation metrics used in §5.
//!
//! * **Aligned-edge ratio** (Fig 10): fraction of edges aligned by a
//!   partition, with "edges using precisely the same identifiers counted
//!   precisely once" — we count *edge classes* (triples of colors) and
//!   report the Jaccard ratio `|S1 ∩ S2| / |S1 ∪ S2|`.
//! * **Aligned edge instances** (Fig 11): absolute number of edges whose
//!   color triple appears on the opposite side; differences of this count
//!   between methods give the "additionally aligned edges" matrices.
//! * **Aligned node/class counts** (Fig 13) and the four-way precision
//!   breakdown exact/inclusive/missing/false against a ground truth
//!   (Figs 14, 15).

use crate::partition::{NodeTally, Partition};
use rdf_model::{
    CombinedGraph, FxHashMap, FxHashSet, GroundTruth, NodeId, OutColumns,
    Side,
};
use std::ops::Range;

/// Edge-level alignment statistics for one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgeStats {
    /// Distinct edge color-triples on the source side.
    pub source_classes: usize,
    /// Distinct edge color-triples on the target side.
    pub target_classes: usize,
    /// Edge color-triples present on both sides.
    pub common_classes: usize,
    /// Source edge instances whose color triple also occurs on the target.
    pub aligned_source_edges: usize,
    /// Target edge instances whose color triple also occurs on the source.
    pub aligned_target_edges: usize,
    /// Total source edge instances.
    pub total_source_edges: usize,
    /// Total target edge instances.
    pub total_target_edges: usize,
}

impl EdgeStats {
    /// Jaccard ratio of aligned edge classes: `|S1∩S2| / |S1∪S2|`
    /// (the Fig 10 measure; 1.0 on complete alignments).
    pub fn ratio(&self) -> f64 {
        let union =
            self.source_classes + self.target_classes - self.common_classes;
        if union == 0 {
            1.0
        } else {
            self.common_classes as f64 / union as f64
        }
    }

    /// Total aligned edge instances over both sides (the Fig 11 count).
    pub fn aligned_instances(&self) -> usize {
        self.aligned_source_edges + self.aligned_target_edges
    }
}

/// Compute [`EdgeStats`] for a partition over a combined graph.
///
/// One sequential pass that hashes nothing. Source nodes come first in
/// the union, so its out-edges split into the two sides at one node
/// boundary. Each side is counting-sorted by `color(s)` into buckets of
/// packed `color(p) << 32 | color(o)` keys (8 B per edge), each bucket
/// is sorted, and the two sides are merged bucket by bucket: every
/// distinct key is one edge class, and a key on both sides is a common
/// class whose instances are aligned.
pub fn edge_stats(partition: &Partition, combined: &CombinedGraph) -> EdgeStats {
    let cols = combined.graph().out_columns();
    let n1 = combined.source_len();
    let all = combined.graph().node_count();
    let source = ColorBuckets::new(&cols, 0..n1, partition);
    let target = ColorBuckets::new(&cols, n1..all, partition);
    let mut stats = EdgeStats {
        total_source_edges: source.keys.len(),
        total_target_edges: target.keys.len(),
        ..EdgeStats::default()
    };
    for c in 0..partition.num_colors() as usize {
        merge_bucket(source.bucket(c), target.bucket(c), &mut stats);
    }
    stats
}

/// One side's edges bucketed by subject color: bucket `c` holds the
/// sorted `color(p) << 32 | color(o)` keys of the edges whose subject
/// has color `c`, at `keys[offsets[c]..offsets[c + 1]]`.
struct ColorBuckets {
    offsets: Vec<u32>,
    keys: Vec<u64>,
}

impl ColorBuckets {
    /// Counting-sort the out-edges of the subjects `nodes` by subject
    /// color, then sort each bucket.
    fn new(
        cols: &OutColumns<'_>,
        nodes: Range<usize>,
        partition: &Partition,
    ) -> Self {
        let colors = partition.colors();
        let (preds, objs) = (cols.preds(), cols.objs());
        let k = partition.num_colors() as usize;
        // Count into `offsets[c]`, prefix-sum to bucket ends, then place
        // each key by decrementing its bucket's end: afterwards
        // `offsets[c]` is bucket `c`'s start and `offsets[k]` the total.
        let mut offsets = vec![0u32; k + 1];
        for n in nodes.clone() {
            let degree = cols.range(NodeId(n as u32)).len() as u32;
            offsets[colors[n].index()] += degree;
        }
        let mut end = 0u32;
        for slot in offsets.iter_mut() {
            end += *slot;
            *slot = end;
        }
        let mut keys = vec![0u64; end as usize];
        for n in nodes {
            let slot = &mut offsets[colors[n].index()];
            for j in cols.range(NodeId(n as u32)) {
                *slot -= 1;
                keys[*slot as usize] = (u64::from(colors[preds[j].index()].0)
                    << 32)
                    | u64::from(colors[objs[j].index()].0);
            }
        }
        for c in 0..k {
            let bucket =
                &mut keys[offsets[c] as usize..offsets[c + 1] as usize];
            if bucket.len() > 1 {
                bucket.sort_unstable();
            }
        }
        ColorBuckets { offsets, keys }
    }

    /// Bucket `c`'s sorted keys.
    #[inline]
    fn bucket(&self, c: usize) -> &[u64] {
        &self.keys[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }
}

/// Merge one subject color's sorted source and target buckets into
/// `stats`: class counts per distinct key, aligned instances per key
/// present on both sides.
fn merge_bucket(a: &[u64], b: &[u64], stats: &mut EdgeStats) {
    let run = |keys: &[u64], i: usize| {
        keys[i..].iter().take_while(|&&k| k == keys[i]).count()
    };
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if j == b.len() || (i < a.len() && a[i] < b[j]) {
            stats.source_classes += 1;
            i += run(a, i);
        } else if i == a.len() || b[j] < a[i] {
            stats.target_classes += 1;
            j += run(b, j);
        } else {
            let (ra, rb) = (run(a, i), run(b, j));
            stats.source_classes += 1;
            stats.target_classes += 1;
            stats.common_classes += 1;
            stats.aligned_source_edges += ra;
            stats.aligned_target_edges += rb;
            i += ra;
            j += rb;
        }
    }
}

/// The hash-set formulation [`edge_stats`] replaced, kept as its
/// reference: both sides' color triples go into one set each, and every
/// triple is probed against the opposite side's set.
#[cfg(test)]
fn edge_stats_reference(
    partition: &Partition,
    combined: &CombinedGraph,
) -> EdgeStats {
    let g = combined.graph();
    let key = |t: rdf_model::Triple| {
        (
            partition.color(t.s).0,
            partition.color(t.p).0,
            partition.color(t.o).0,
        )
    };
    let mut s1: FxHashSet<(u32, u32, u32)> = FxHashSet::default();
    let mut s2: FxHashSet<(u32, u32, u32)> = FxHashSet::default();
    let mut stats = EdgeStats::default();
    for t in g.triples() {
        match combined.side(t.s) {
            Side::Source => {
                s1.insert(key(t));
                stats.total_source_edges += 1;
            }
            Side::Target => {
                s2.insert(key(t));
                stats.total_target_edges += 1;
            }
        }
    }
    stats.source_classes = s1.len();
    stats.target_classes = s2.len();
    stats.common_classes = s1.intersection(&s2).count();
    for t in g.triples() {
        match combined.side(t.s) {
            Side::Source => {
                stats.aligned_source_edges += usize::from(s2.contains(&key(t)));
            }
            Side::Target => {
                stats.aligned_target_edges += usize::from(s1.contains(&key(t)));
            }
        }
    }
    stats
}

/// Node-level alignment counts over *non-literal* nodes (Fig 13).
///
/// Literals are excluded throughout: they align trivially by label and
/// the ground truth of §5.2 concerns URIs (and blanks), so including
/// them would drown the signal the figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeCounts {
    /// Classes populated with non-literal nodes from both sides —
    /// deduplicated aligned entities.
    pub aligned_classes: usize,
    /// Non-literal source nodes that are aligned.
    pub aligned_source_nodes: usize,
    /// Non-literal target nodes that are aligned.
    pub aligned_target_nodes: usize,
    /// Non-literal source node total.
    pub total_source_nodes: usize,
    /// Non-literal target node total.
    pub total_target_nodes: usize,
}

impl NodeCounts {
    /// Deduplicated entity total given a ground truth: nodes present in
    /// both versions are counted once (`|N1| + |N2| − |GT|`).
    pub fn total_entities(&self, truth: &GroundTruth) -> usize {
        self.total_source_nodes + self.total_target_nodes - truth.len()
    }
}

/// Compute [`NodeCounts`] for a partition over a combined graph,
/// restricted to non-literal nodes.
pub fn node_counts(partition: &Partition, combined: &CombinedGraph) -> NodeCounts {
    NodeTally::new(partition, combined).node_counts()
}

/// The four-way per-node classification of §5.2 (Figs 14, 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchBreakdown {
    /// Aligned to exactly the set the ground truth indicates (including
    /// correctly-unaligned nodes without a ground-truth partner).
    pub exact: usize,
    /// Aligned to a proper superset that includes the true partner.
    pub inclusive: usize,
    /// Aligned to a set not containing the true partner (possibly empty).
    pub missing: usize,
    /// Aligned to a nonempty set although the truth aligns the node to
    /// nothing.
    pub false_matches: usize,
}

impl MatchBreakdown {
    /// Total nodes classified.
    pub fn total(&self) -> usize {
        self.exact + self.inclusive + self.missing + self.false_matches
    }

    /// Fraction of exact matches.
    pub fn exact_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.exact as f64 / self.total() as f64
        }
    }
}

/// Classify every *non-literal* node of both versions against the
/// ground truth (literals align trivially by label and are excluded,
/// matching the paper's URI-centric evaluation).
///
/// For a node `n` with aligned set `A(n)` (opposite-side non-literal
/// members of its class) and true partner `gt(n)`:
/// * `gt(n)` defined, `A(n) = {gt(n)}` → exact;
/// * `gt(n)` defined, `gt(n) ∈ A(n)`, `|A(n)| > 1` → inclusive;
/// * `gt(n)` defined, `gt(n) ∉ A(n)` → missing;
/// * `gt(n)` undefined, `A(n) = ∅` → exact (correctly unaligned);
/// * `gt(n)` undefined, `A(n) ≠ ∅` → false match.
pub fn classify_matches(
    partition: &Partition,
    combined: &CombinedGraph,
    truth: &GroundTruth,
) -> MatchBreakdown {
    let g = combined.graph();
    let k = partition.num_colors() as usize;
    // Per color: count of non-literal nodes on each side.
    let mut src_count = vec![0u32; k];
    let mut tgt_count = vec![0u32; k];
    for n in g.nodes() {
        if g.is_literal(n) {
            continue;
        }
        let c = partition.color(n).index();
        match combined.side(n) {
            Side::Source => src_count[c] += 1,
            Side::Target => tgt_count[c] += 1,
        }
    }
    let mut breakdown = MatchBreakdown::default();
    for n in g.nodes() {
        if g.is_literal(n) {
            continue;
        }
        let c = partition.color(n).index();
        let (side, local) = combined.to_local(n);
        let (gt_partner, opp_count) = match side {
            Side::Source => (truth.target_of(local), tgt_count[c]),
            Side::Target => (truth.source_of(local), src_count[c]),
        };
        match gt_partner {
            None => {
                if opp_count == 0 {
                    breakdown.exact += 1;
                } else {
                    breakdown.false_matches += 1;
                }
            }
            Some(partner) => {
                let partner_global = match side {
                    Side::Source => combined.from_target(partner),
                    Side::Target => combined.from_source(partner),
                };
                let partner_in =
                    partition.color(partner_global).index() == c;
                if partner_in && opp_count == 1 {
                    breakdown.exact += 1;
                } else if partner_in {
                    breakdown.inclusive += 1;
                } else {
                    breakdown.missing += 1;
                }
            }
        }
    }
    breakdown
}

/// Counts of aligned *predicate-only* URIs that differ from the ground
/// truth — §5.1 discusses these as the main error source for EFO.
pub fn predicate_only_uris(combined: &CombinedGraph) -> Vec<NodeId> {
    let g = combined.graph();
    let mut appears_subject_or_object: FxHashMap<NodeId, bool> =
        FxHashMap::default();
    let mut appears_predicate: FxHashSet<NodeId> = FxHashSet::default();
    for t in g.triples() {
        appears_subject_or_object.insert(t.s, true);
        appears_subject_or_object.insert(t.o, true);
        appears_predicate.insert(t.p);
    }
    g.nodes()
        .filter(|n| {
            g.is_uri(*n)
                && appears_predicate.contains(n)
                && !appears_subject_or_object.contains_key(n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{deblank_partition, trivial_partition};
    use proptest::prelude::*;
    use rdf_model::{RdfGraphBuilder, Vocab};

    fn versions() -> (Vocab, CombinedGraph) {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.uub("x", "q", "b1");
            b.bul("b1", "r", "rec");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.uub("x", "q", "b2");
            b.bul("b2", "r", "rec");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        (v, c)
    }

    #[test]
    fn edge_ratio_improves_with_deblank() {
        let (_, c) = versions();
        let t = trivial_partition(&c);
        let d = deblank_partition(&c).partition;
        let et = edge_stats(&t, &c);
        let ed = edge_stats(&d, &c);
        // Trivial cannot align the blank-involving edges.
        assert!(et.ratio() < 1.0);
        // Deblank aligns everything here.
        assert!((ed.ratio() - 1.0).abs() < 1e-12);
        assert!(ed.aligned_instances() > et.aligned_instances());
    }

    #[test]
    fn self_alignment_ratio_is_one_for_deblank() {
        let (v, c) = {
            let mut v = Vocab::new();
            let g = {
                let mut b = RdfGraphBuilder::new(&mut v);
                b.uub("x", "p", "b1");
                b.bul("b1", "q", "lit");
                b.finish()
            };
            let c = CombinedGraph::union(&v, &g, &g);
            (v, c)
        };
        let _ = v;
        let d = deblank_partition(&c).partition;
        assert!((edge_stats(&d, &c).ratio() - 1.0).abs() < 1e-12);
        // Trivial self-alignment < 1 because blanks stay unaligned
        // (Fig 10, left).
        let t = trivial_partition(&c);
        assert!(edge_stats(&t, &c).ratio() < 1.0);
    }

    #[test]
    fn node_counts_dedup() {
        let (_, c) = versions();
        let d = deblank_partition(&c).partition;
        let counts = node_counts(&d, &c);
        assert_eq!(counts.aligned_source_nodes, counts.total_source_nodes);
        // Non-literal entities per side: x, p, q, blank-record, r -> 5.
        assert_eq!(counts.total_source_nodes, 5);
        assert_eq!(counts.aligned_classes, 5);
        let mut gt = GroundTruth::new();
        for i in 0..5 {
            gt.insert(NodeId(i), NodeId(i));
        }
        assert_eq!(counts.total_entities(&gt), 5);
    }

    #[test]
    fn classification_all_exact_on_perfect_alignment() {
        let (_, c) = versions();
        let d = deblank_partition(&c).partition;
        // Ground truth: identical builder order on both sides.
        let mut gt = GroundTruth::new();
        for i in 0..7u32 {
            gt.insert(NodeId(i), NodeId(i));
        }
        let b = classify_matches(&d, &c, &gt);
        // 5 non-literal nodes per side, all exactly aligned.
        assert_eq!(b.exact, 10);
        assert_eq!(b.inclusive + b.missing + b.false_matches, 0);
        assert!((b.exact_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn classification_missing_under_trivial() {
        let (_, c) = versions();
        let t = trivial_partition(&c);
        let mut gt = GroundTruth::new();
        for i in 0..7u32 {
            gt.insert(NodeId(i), NodeId(i));
        }
        let b = classify_matches(&t, &c, &gt);
        // The two blanks (one per side) are unaligned under Trivial but
        // have ground-truth partners: 2 missing.
        assert_eq!(b.missing, 2);
        assert_eq!(b.exact, 8);
    }

    #[test]
    fn false_matches_detected() {
        // Both sides have a node "x"; truth says they do NOT correspond.
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let t = trivial_partition(&c);
        let gt = GroundTruth::new(); // empty: nothing truly corresponds
        let b = classify_matches(&t, &c, &gt);
        assert_eq!(b.false_matches, 4); // x and p on both sides
        assert_eq!(b.exact, 0);
    }

    /// A random pair of versions sharing a vocabulary, over small URI,
    /// blank and literal pools so classes repeat within and across
    /// sides.
    fn arb_versions() -> impl Strategy<Value = (Vocab, CombinedGraph)> {
        (0usize..40, 0usize..40, any::<u64>()).prop_map(|(m1, m2, seed)| {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut v = Vocab::new();
            let mut build = |v: &mut Vocab, triples: usize| {
                let mut b = RdfGraphBuilder::new(v);
                for _ in 0..triples {
                    let s = format!("s{}", next() % 7);
                    let p = format!("p{}", next() % 3);
                    let o = format!("o{}", next() % 7);
                    match next() % 6 {
                        0 => b.uuu(&s, &p, &o),
                        1 => b.uul(&s, &p, &o),
                        2 => b.uub(&s, &p, &o),
                        3 => b.bul(&s, &p, &o),
                        4 => b.buu(&s, &p, &o),
                        _ => b.bub(&s, &p, &o),
                    }
                }
                b.finish()
            };
            let g1 = build(&mut v, m1);
            let g2 = build(&mut v, m2);
            let c = CombinedGraph::union(&v, &g1, &g2);
            (v, c)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bucketed pass equals the hash-set reference under every
        /// method's partition and under arbitrary partitions: random
        /// ones, the unit partition, and one class holding every
        /// subject with the other nodes spread at random.
        #[test]
        fn bucketed_edge_stats_equal_hash_set_reference(
            (v, c) in arb_versions(),
            raw in proptest::collection::vec(0u32..5, 0..200),
        ) {
            let n = c.graph().node_count();
            let random: Vec<u32> =
                (0..n).map(|i| raw.get(i).copied().unwrap_or(0)).collect();
            let mut subjects_merged: Vec<u32> =
                random.iter().map(|&r| r + 1).collect();
            for t in c.graph().triples() {
                subjects_merged[t.s.index()] = 0;
            }
            let partitions = [
                trivial_partition(&c),
                deblank_partition(&c).partition,
                crate::methods::hybrid_partition(&c).partition,
                crate::overlap_align::overlap_align(
                    &c,
                    &v,
                    crate::overlap_align::OverlapConfig::default(),
                )
                .weighted
                .partition,
                Partition::from_colors(&random),
                Partition::unit(n),
                Partition::discrete(n),
                Partition::from_colors(&subjects_merged),
            ];
            for p in &partitions {
                prop_assert_eq!(edge_stats(p, &c), edge_stats_reference(p, &c));
            }
        }
    }

    #[test]
    fn predicate_only_detection() {
        let (_, c) = versions();
        let preds = predicate_only_uris(&c);
        // p, q, r on each side = 6 predicate-only URIs.
        assert_eq!(preds.len(), 6);
    }
}
