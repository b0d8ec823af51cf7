//! The multi-version archive.
//!
//! §6 of the paper asks: *"can the (constructed) alignments be used to
//! construct compact representations of all versions of an RDF database?
//! One way of approaching this would be to decorate triples with
//! intervals that represent versions where the triple was present. Our
//! preliminary observations suggest that triples tend to enter and leave
//! with their subject. Consequently, moving the interval information
//! where possible to the subject nodes could offer further improvements
//! on space requirements."*
//!
//! This module implements exactly that: versions are pushed one by one;
//! the alignment between consecutive versions (any partition method)
//! carries *canonical entity identity* across versions; triples are
//! stored once with a version-interval set; and the space report counts
//! how many triples' intervals coincide with their subject's lifespan —
//! the ones whose intervals can be elided under subject factoring.

use crate::interval::IntervalSet;
use rdf_align::partition::{Partition, SideCounts};
use rdf_model::{
    CombinedGraph, FxHashMap, LabelId, NodeId, TripleGraph,
};

/// Canonical entity identifier, stable across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonId(pub u32);

/// Space accounting for the three storage schemes of §6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Σ over versions of triple counts — storing every version whole.
    pub naive_triples: usize,
    /// Distinct canonical triples — stored once each.
    pub distinct_triples: usize,
    /// Total interval ranges attached to triples.
    pub triple_intervals: usize,
    /// Triples whose interval set equals their subject's lifespan — the
    /// intervals that subject factoring elides.
    pub subject_covered: usize,
    /// Interval ranges that remain after subject factoring
    /// (triple intervals of non-covered triples + one lifespan per
    /// subject).
    pub factored_intervals: usize,
}

impl SpaceStats {
    /// Fraction of triples that "enter and leave with their subject".
    pub fn subject_covered_fraction(&self) -> f64 {
        if self.distinct_triples == 0 {
            0.0
        } else {
            self.subject_covered as f64 / self.distinct_triples as f64
        }
    }
}

/// A compact archive of all versions of an evolving RDF graph.
///
/// `PartialEq` compares full archive state (versions, lifespans, label
/// histories, triples, last mapping) — the identity that persistence
/// round-trips must preserve.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Archive {
    pub(crate) num_versions: u32,
    pub(crate) next_canon: u32,
    /// Canonical triple → versions where present.
    pub(crate) triples: FxHashMap<(CanonId, CanonId, CanonId), IntervalSet>,
    /// Entity lifespans.
    pub(crate) lifespans: FxHashMap<CanonId, IntervalSet>,
    /// Label history per entity: change points `(version, label)`,
    /// ascending by version (renamed URIs share a canonical entity but
    /// change label).
    pub(crate) labels: FxHashMap<CanonId, Vec<(u32, LabelId)>>,
    /// Node → canon mapping of the most recently pushed version.
    pub(crate) last_mapping: Vec<CanonId>,
}

impl Archive {
    /// Empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of versions pushed.
    pub fn num_versions(&self) -> usize {
        self.num_versions as usize
    }

    /// Push the first version (no alignment needed).
    pub fn push_first(&mut self, g: &TripleGraph) -> Vec<CanonId> {
        assert_eq!(self.num_versions, 0, "push_first on non-empty archive");
        let mapping: Vec<CanonId> =
            g.nodes().map(|_| self.fresh_canon()).collect();
        self.ingest(g, &mapping);
        self.last_mapping = mapping.clone();
        self.num_versions = 1;
        mapping
    }

    /// Push the next version given the alignment between the previous
    /// version (source side) and this one (target side). Only classes
    /// with exactly one node on each side carry identity; everything
    /// else gets a fresh canonical id.
    pub fn push_aligned(
        &mut self,
        g: &TripleGraph,
        combined: &CombinedGraph,
        partition: &Partition,
    ) -> Vec<CanonId> {
        assert!(self.num_versions > 0, "push_first before push_aligned");
        assert_eq!(combined.source_len(), self.last_mapping.len());
        assert_eq!(combined.target_len(), g.node_count());

        let counts = SideCounts::new(partition, combined);
        let k = partition.num_colors() as usize;
        // Representative source node per 1-1 class.
        let mut source_rep: Vec<Option<NodeId>> = vec![None; k];
        for n in combined.source_nodes() {
            let c = partition.color(n);
            if counts.is_one_to_one(c) {
                source_rep[c.index()] = Some(n);
            }
        }
        let mut mapping = Vec::with_capacity(g.node_count());
        for m_local in g.nodes() {
            let m = combined.from_target(m_local);
            let canon = match source_rep[partition.color(m).index()] {
                Some(prev) => self.last_mapping[prev.index()],
                None => self.fresh_canon(),
            };
            mapping.push(canon);
        }
        self.ingest(g, &mapping);
        self.last_mapping = mapping.clone();
        self.num_versions += 1;
        mapping
    }

    fn fresh_canon(&mut self) -> CanonId {
        let id = CanonId(self.next_canon);
        self.next_canon += 1;
        id
    }

    fn ingest(&mut self, g: &TripleGraph, mapping: &[CanonId]) {
        let v = self.num_versions;
        for (n, &canon) in g.nodes().zip(mapping) {
            self.lifespans.entry(canon).or_default().push(v);
            let history = self.labels.entry(canon).or_default();
            if history.last().map(|&(_, l)| l) != Some(g.label(n)) {
                history.push((v, g.label(n)));
            }
        }
        for t in g.triples() {
            let key = (
                mapping[t.s.index()],
                mapping[t.p.index()],
                mapping[t.o.index()],
            );
            self.triples.entry(key).or_default().push(v);
        }
    }

    /// Reconstruct the canonical triples of a version.
    pub fn version_triples(&self, v: u32) -> Vec<(CanonId, CanonId, CanonId)> {
        let mut out: Vec<_> = self
            .triples
            .iter()
            .filter(|(_, iv)| iv.contains(v))
            .map(|(&t, _)| t)
            .collect();
        out.sort_unstable();
        out
    }

    /// The label an entity carried at a version, if alive then.
    pub fn label_at(&self, canon: CanonId, v: u32) -> Option<LabelId> {
        if !self.lifespans.get(&canon)?.contains(v) {
            return None;
        }
        let history = self.labels.get(&canon)?;
        history
            .iter()
            .take_while(|&&(at, _)| at <= v)
            .last()
            .map(|&(_, l)| l)
    }

    /// An entity's lifespan.
    pub fn lifespan(&self, canon: CanonId) -> Option<&IntervalSet> {
        self.lifespans.get(&canon)
    }

    /// Number of distinct canonical entities.
    pub fn entity_count(&self) -> usize {
        self.lifespans.len()
    }

    /// Space accounting across the three schemes of §6.
    pub fn space_stats(&self) -> SpaceStats {
        let mut stats = SpaceStats {
            distinct_triples: self.triples.len(),
            ..Default::default()
        };
        for iv in self.triples.values() {
            stats.naive_triples += iv.version_count();
            stats.triple_intervals += iv.range_count();
        }
        let mut residual = 0usize;
        for ((s, _, _), iv) in &self.triples {
            let subject_life = &self.lifespans[s];
            if iv == subject_life {
                stats.subject_covered += 1;
            } else {
                residual += iv.range_count();
            }
        }
        // Subjects still pay one lifespan each.
        let subjects: rdf_model::FxHashSet<CanonId> =
            self.triples.keys().map(|&(s, _, _)| s).collect();
        let subject_ranges: usize = subjects
            .iter()
            .map(|s| self.lifespans[s].range_count())
            .sum();
        stats.factored_intervals = residual + subject_ranges;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_align::methods::hybrid_partition;
    use rdf_model::{RdfGraphBuilder, Vocab};

    /// Three versions: v2 renames a URI (content unchanged), v3 drops a
    /// triple.
    fn three_versions() -> (Vocab, Vec<rdf_model::RdfGraph>) {
        let mut vocab = Vocab::new();
        let v1 = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uul("old:x", "p", "stable");
            b.uul("old:x", "q", "extra");
            b.finish()
        };
        let v2 = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uul("new:x", "p", "stable");
            b.uul("new:x", "q", "extra");
            b.finish()
        };
        let v3 = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uul("new:x", "p", "stable");
            b.finish()
        };
        (vocab, vec![v1, v2, v3])
    }

    fn build(vocab: &Vocab, versions: &[rdf_model::RdfGraph]) -> Archive {
        let mut archive = Archive::new();
        archive.push_first(versions[0].graph());
        for w in versions.windows(2) {
            let combined = CombinedGraph::union(vocab, &w[0], &w[1]);
            let partition = hybrid_partition(&combined).partition;
            archive.push_aligned(w[1].graph(), &combined, &partition);
        }
        archive
    }

    #[test]
    fn reconstruction_round_trips() {
        let (vocab, versions) = three_versions();
        let archive = build(&vocab, &versions);
        assert_eq!(archive.num_versions(), 3);
        for (v, graph) in versions.iter().enumerate() {
            assert_eq!(
                archive.version_triples(v as u32).len(),
                graph.triple_count(),
                "version {v}"
            );
        }
    }

    #[test]
    fn renamed_entity_keeps_canonical_identity() {
        let (vocab, versions) = three_versions();
        let archive = build(&vocab, &versions);
        // The renamed x contributes ONE canonical subject; its (x, p,
        // "stable") triple is stored once with interval [0, 3).
        let t0 = archive.version_triples(0);
        let t2 = archive.version_triples(2);
        // v3's only triple also exists in v1 under the same canonical ids.
        assert!(t0.contains(&t2[0]));
        let stable_triple = t2[0];
        assert_eq!(
            archive.triples[&stable_triple].ranges(),
            &[(0, 3)],
            "one contiguous interval across the rename"
        );
    }

    #[test]
    fn label_history_tracks_rename() {
        let (vocab, versions) = three_versions();
        let archive = build(&vocab, &versions);
        let x_canon = archive.version_triples(0)[0].0;
        let l0 = archive.label_at(x_canon, 0).unwrap();
        let l1 = archive.label_at(x_canon, 1).unwrap();
        let l2 = archive.label_at(x_canon, 2).unwrap();
        assert_eq!(vocab.text(l0), "old:x");
        assert_eq!(vocab.text(l1), "new:x");
        assert_eq!(l1, l2);
        // Dead entities have no label.
        assert_eq!(archive.label_at(CanonId(99_999), 0), None);
    }

    #[test]
    fn space_stats_reflect_subject_factoring() {
        let (vocab, versions) = three_versions();
        let archive = build(&vocab, &versions);
        let s = archive.space_stats();
        // naive = 2 + 2 + 1 = 5 triples; distinct = 2.
        assert_eq!(s.naive_triples, 5);
        assert_eq!(s.distinct_triples, 2);
        // (x,p,stable) spans [0,3) = x's lifespan -> covered;
        // (x,q,extra) spans [0,2) != lifespan -> not covered.
        assert_eq!(s.subject_covered, 1);
        assert!(s.subject_covered_fraction() > 0.49);
        // factored = 1 residual (q-triple) + 1 subject lifespan = 2.
        assert_eq!(s.factored_intervals, 2);
        assert!(s.factored_intervals <= s.triple_intervals + 1);
    }

    #[test]
    fn unaligned_nodes_get_fresh_identity() {
        let mut vocab = Vocab::new();
        let v1 = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uul("a:1", "p", "one");
            b.finish()
        };
        let v2 = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uul("b:2", "p", "two");
            b.finish()
        };
        let mut archive = Archive::new();
        archive.push_first(v1.graph());
        let combined = CombinedGraph::union(&vocab, &v1, &v2);
        let partition = hybrid_partition(&combined).partition;
        archive.push_aligned(v2.graph(), &combined, &partition);
        // Subjects differ in content: distinct canonical entities; the
        // shared predicate p is canonical across both versions.
        let s = archive.space_stats();
        assert_eq!(s.distinct_triples, 2);
        assert_eq!(s.naive_triples, 2);
    }

    #[test]
    fn entity_count_and_lifespans() {
        let (vocab, versions) = three_versions();
        let archive = build(&vocab, &versions);
        // Entities: x, p, q, "stable", "extra" = 5 canonical ids.
        assert_eq!(archive.entity_count(), 5);
        let x = archive.version_triples(0)[0].0;
        assert_eq!(archive.lifespan(x).unwrap().ranges(), &[(0, 3)]);
    }
}
