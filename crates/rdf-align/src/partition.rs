//! Partitions of the combined graph (§2.2).
//!
//! A partition assigns every node a *color*; the equivalence classes are
//! the sets of nodes with the same color. We keep colors dense
//! (`0..num_colors`) and canonical (numbered by first occurrence), which
//! makes partition equivalence (`λ1 ≡ λ2`, i.e. `R_{λ1} = R_{λ2}`) a simple
//! recoloring check and makes per-class counting array-indexed.

use crate::metrics::NodeCounts;
use rdf_model::{CombinedGraph, FxHashMap, NodeId, Side, TripleGraph};

/// Dense color identifier within one [`Partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColorId(pub u32);

impl ColorId {
    /// The color as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// First-occurrence numbering of dense keys: a lookup table indexed by
/// the key replaces a hash map wherever keys are already small ids.
/// [`DenseIds::fresh`] hands out an id no key maps to, from the same
/// counter, so keys and fresh ids interleave in one numbering. The
/// table is sized by the caller's key bound, so callers pass keys
/// bounded by memory they already hold (a vocabulary, a color count).
#[derive(Debug, Default)]
pub(crate) struct DenseIds {
    table: Vec<u32>,
    next: u32,
}

impl DenseIds {
    /// Slot value of a key that has no id yet.
    const UNSEEN: u32 = u32::MAX;

    /// Forget every id and accept keys below `bound`; the table's
    /// allocation is kept for the next use.
    pub(crate) fn reset(&mut self, bound: usize) {
        self.table.clear();
        self.table.resize(bound, Self::UNSEEN);
        self.next = 0;
    }

    /// The id of `key`: the next id the first time it is seen.
    #[inline]
    pub(crate) fn id(&mut self, key: u32) -> u32 {
        let slot = &mut self.table[key as usize];
        if *slot == Self::UNSEEN {
            *slot = self.next;
            self.next += 1;
        }
        *slot
    }

    /// A new id that no key maps to.
    #[inline]
    pub(crate) fn fresh(&mut self) -> u32 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Ids handed out so far.
    #[inline]
    pub(crate) fn count(&self) -> u32 {
        self.next
    }
}

/// A partition `λ : N_G → C` of the nodes of one graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    colors: Vec<ColorId>,
    num_colors: u32,
}

impl Partition {
    /// Build from raw color assignments, canonicalising to dense colors
    /// numbered by first occurrence.
    pub fn from_colors<T: std::hash::Hash + Eq>(raw: &[T]) -> Self {
        let mut map: FxHashMap<&T, u32> = FxHashMap::default();
        let mut colors = Vec::with_capacity(raw.len());
        for c in raw {
            let next = map.len() as u32;
            let id = *map.entry(c).or_insert(next);
            colors.push(ColorId(id));
        }
        Partition {
            colors,
            num_colors: map.len() as u32,
        }
    }

    /// [`Partition::from_colors`] for keys that are dense ids (label ids,
    /// colors, colors plus a few fresh ones): a [`DenseIds`] table sized
    /// by the largest key + 1 replaces the hash map, and numbering is by
    /// first occurrence as there.
    pub(crate) fn from_dense_keys<I>(keys: I) -> Self
    where
        I: Iterator<Item = u32> + Clone,
    {
        let mut ids = DenseIds::default();
        ids.reset(keys.clone().max().map_or(0, |m| m as usize + 1));
        let colors = keys.map(|k| ColorId(ids.id(k))).collect();
        Partition::from_dense(colors, ids.count())
    }

    /// The discrete partition: every node its own class.
    pub fn discrete(n: usize) -> Self {
        Partition {
            colors: (0..n as u32).map(ColorId).collect(),
            num_colors: n as u32,
        }
    }

    /// The unit partition: all nodes in one class.
    pub fn unit(n: usize) -> Self {
        Partition {
            colors: vec![ColorId(0); n],
            num_colors: if n == 0 { 0 } else { 1 },
        }
    }

    /// Construct from already-dense canonical colors (internal use).
    pub(crate) fn from_dense(colors: Vec<ColorId>, num_colors: u32) -> Self {
        debug_assert!(colors.iter().all(|c| c.0 < num_colors));
        Partition { colors, num_colors }
    }

    /// The color column, given up for reuse (internal use).
    pub(crate) fn into_colors(self) -> Vec<ColorId> {
        self.colors
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether the partition covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Number of equivalence classes.
    #[inline]
    pub fn num_colors(&self) -> u32 {
        self.num_colors
    }

    /// The color of a node.
    #[inline]
    pub fn color(&self, n: NodeId) -> ColorId {
        self.colors[n.index()]
    }

    /// Raw color slice.
    #[inline]
    pub fn colors(&self) -> &[ColorId] {
        &self.colors
    }

    /// Whether two nodes are in the same class.
    #[inline]
    pub fn same_class(&self, n: NodeId, m: NodeId) -> bool {
        self.color(n) == self.color(m)
    }

    /// Partition equivalence `λ1 ≡ λ2` (Definition in §2.2): identical
    /// induced equivalence relations. Because both partitions are
    /// canonical (colors numbered by first occurrence), equivalence is
    /// exact equality of the color vectors.
    pub fn equivalent(&self, other: &Partition) -> bool {
        self.num_colors == other.num_colors && self.colors == other.colors
    }

    /// Whether `self` is finer than (or equivalent to) `other`:
    /// `R_self ⊆ R_other`.
    pub fn finer_than(&self, other: &Partition) -> bool {
        if self.len() != other.len() {
            return false;
        }
        // self finer than other iff each self-class is contained in one
        // other-class, i.e. the map self-color -> other-color is a function.
        let mut map: Vec<Option<ColorId>> = vec![None; self.num_colors as usize];
        for i in 0..self.len() {
            let sc = self.colors[i].index();
            match map[sc] {
                None => map[sc] = Some(other.colors[i]),
                Some(oc) => {
                    if oc != other.colors[i] {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Group nodes by class; classes ordered by color id.
    pub fn classes(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.num_colors as usize];
        for (i, c) in self.colors.iter().enumerate() {
            out[c.index()].push(NodeId(i as u32));
        }
        out
    }

    /// Sizes of all classes, indexed by color.
    pub fn class_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![0u32; self.num_colors as usize];
        for c in &self.colors {
            sizes[c.index()] += 1;
        }
        sizes
    }
}

/// Which nodes a [`SideCounts`] query reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKinds {
    /// Every node.
    All,
    /// URIs and blank nodes.
    NonLiteral,
    /// Literals.
    Literal,
}

impl NodeKinds {
    /// Whether a node that is (or is not) a literal is among these.
    #[inline]
    fn admits(self, literal: bool) -> bool {
        match self {
            NodeKinds::All => true,
            NodeKinds::NonLiteral => !literal,
            NodeKinds::Literal => literal,
        }
    }
}

/// Per-class, per-side occupancy of a partition over a combined graph:
/// how many source and how many target nodes each class holds, over
/// every node and over the non-literal nodes. It is the one count
/// behind every §3.1 query: whether a class is aligned, `Align(λ)` and
/// its size, `Unaligned(λ)`, `UN(λ)` (equation 4) and the §5 node
/// counts.
#[derive(Debug, Clone)]
pub struct SideCounts {
    /// Every node per color, indexed `[source, target]`.
    all: [Vec<u32>; 2],
    /// Non-literal nodes per color, indexed `[source, target]`.
    non_literal: [Vec<u32>; 2],
}

impl SideCounts {
    /// Count every class's members per side, in one walk over the
    /// union.
    pub fn new(partition: &Partition, combined: &CombinedGraph) -> Self {
        let k = partition.num_colors() as usize;
        let zero = || [vec![0u32; k], vec![0u32; k]];
        let (mut all, mut non_literal) = (zero(), zero());
        let g = combined.graph();
        let n1 = combined.source_len();
        for (i, c) in partition.colors().iter().enumerate() {
            let side = usize::from(i >= n1);
            all[side][c.index()] += 1;
            if !g.is_literal(NodeId(i as u32)) {
                non_literal[side][c.index()] += 1;
            }
        }
        SideCounts { all, non_literal }
    }

    /// Members of class `color` on `side` among `kinds`.
    #[inline]
    pub fn count(&self, kinds: NodeKinds, side: Side, color: ColorId) -> u32 {
        let (s, c) = (usize::from(side == Side::Target), color.index());
        match kinds {
            NodeKinds::All => self.all[s][c],
            NodeKinds::NonLiteral => self.non_literal[s][c],
            NodeKinds::Literal => self.all[s][c] - self.non_literal[s][c],
        }
    }

    /// Whether a class holds nodes of both sides, so that every member
    /// is aligned (§3.1).
    #[inline]
    pub fn is_aligned(&self, color: ColorId) -> bool {
        let c = color.index();
        self.all[0][c] > 0 && self.all[1][c] > 0
    }

    /// Whether a class holds exactly one node of each side.
    #[inline]
    pub fn is_one_to_one(&self, color: ColorId) -> bool {
        let c = color.index();
        self.all[0][c] == 1 && self.all[1][c] == 1
    }

    /// Number of classes populated from both sides.
    pub fn aligned_classes(&self) -> usize {
        (0..self.all[0].len())
            .filter(|&c| self.is_aligned(ColorId(c as u32)))
            .count()
    }

    /// `|Align(λ)|`: Σ over classes of source members · target members.
    pub fn pair_count(&self) -> u64 {
        let [source, target] = &self.all;
        source
            .iter()
            .zip(target)
            .map(|(&s, &t)| u64::from(s) * u64::from(t))
            .sum()
    }

    /// The §5 node counts over non-literal nodes.
    pub fn node_counts(&self) -> NodeCounts {
        let [source, target] = &self.non_literal;
        let mut counts = NodeCounts {
            total_source_nodes: source.iter().map(|&n| n as usize).sum(),
            total_target_nodes: target.iter().map(|&n| n as usize).sum(),
            ..NodeCounts::default()
        };
        for (&s, &t) in source.iter().zip(target) {
            if s > 0 && t > 0 {
                counts.aligned_classes += 1;
                counts.aligned_source_nodes += s as usize;
                counts.aligned_target_nodes += t as usize;
            }
        }
        counts
    }

    /// The unaligned nodes among `kinds` of `nodes` (every node, or one
    /// side's), in the order given.
    pub fn unaligned(
        &self,
        partition: &Partition,
        g: &TripleGraph,
        kinds: NodeKinds,
        nodes: impl Iterator<Item = NodeId>,
    ) -> Vec<NodeId> {
        nodes
            .filter(|&n| {
                !self.is_aligned(partition.color(n))
                    && kinds.admits(g.is_literal(n))
            })
            .collect()
    }

    /// Call `f(s, t)` for every pair of `Align(λ)` in combined ids:
    /// class by class in color order, and within a class sources then
    /// targets in ascending order. Each side's members are grouped by
    /// a counting sort over this tally.
    pub fn for_each_pair(
        &self,
        partition: &Partition,
        combined: &CombinedGraph,
        mut f: impl FnMut(NodeId, NodeId),
    ) {
        let (ss, source) =
            group_by_color(partition, &self.all[0], combined.source_nodes());
        let (ts, target) =
            group_by_color(partition, &self.all[1], combined.target_nodes());
        for c in 0..self.all[0].len() {
            for &s in &source[ss[c]..ss[c + 1]] {
                for &t in &target[ts[c]..ts[c + 1]] {
                    f(s, t);
                }
            }
        }
    }
}

/// Counting-sort `nodes` by color, given each color's member count:
/// color `c`'s members are `members[starts[c]..starts[c + 1]]`, in the
/// order given.
fn group_by_color(
    partition: &Partition,
    counts: &[u32],
    nodes: impl Iterator<Item = NodeId>,
) -> (Vec<usize>, Vec<NodeId>) {
    let mut starts = Vec::with_capacity(counts.len() + 1);
    let mut end = 0usize;
    starts.push(end);
    for &n in counts {
        end += n as usize;
        starts.push(end);
    }
    let mut next = starts.clone();
    let mut members = vec![NodeId(0); end];
    for n in nodes {
        let slot = &mut next[partition.color(n).index()];
        members[*slot] = n;
        *slot += 1;
    }
    (starts, members)
}

/// `Unaligned(λ)` (§3.1): nodes whose class contains no node of the
/// opposite graph. Returned in ascending node order.
pub fn unaligned_nodes(
    partition: &Partition,
    combined: &CombinedGraph,
) -> Vec<NodeId> {
    let g = combined.graph();
    let counts = SideCounts::new(partition, combined);
    counts.unaligned(partition, g, NodeKinds::All, g.nodes())
}

/// `UN(λ)` (equation 4): unaligned nodes that are not literals.
pub fn unaligned_non_literals(
    partition: &Partition,
    combined: &CombinedGraph,
) -> Vec<NodeId> {
    let g = combined.graph();
    let counts = SideCounts::new(partition, combined);
    counts.unaligned(partition, g, NodeKinds::NonLiteral, g.nodes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdf_model::{RdfGraphBuilder, Vocab};

    #[test]
    fn canonicalisation_by_first_occurrence() {
        let p = Partition::from_colors(&[7u32, 3, 7, 9, 3]);
        assert_eq!(p.num_colors(), 3);
        assert_eq!(
            p.colors(),
            &[ColorId(0), ColorId(1), ColorId(0), ColorId(2), ColorId(1)]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense canonicaliser numbers keys exactly as the hash map
        /// of `from_colors` does, on keys with repeats and gaps.
        #[test]
        fn dense_keys_equal_from_colors(
            raw in proptest::collection::vec(0u32..40, 0..300),
            stride in 1u32..5_000,
        ) {
            let keys: Vec<u32> = raw.iter().map(|&k| k * stride).collect();
            prop_assert_eq!(
                Partition::from_dense_keys(keys.iter().copied()),
                Partition::from_colors(&keys)
            );
        }

        /// Fresh ids interleave with keyed ids in one first-occurrence
        /// numbering: a fresh id equals a key seen exactly once.
        #[test]
        fn fresh_ids_interleave_with_keys(
            raw in proptest::collection::vec(0u32..60, 0..300),
        ) {
            // Keys >= 40 stand for fresh ids.
            let mut ids = DenseIds::default();
            ids.reset(40);
            let colors: Vec<ColorId> = raw
                .iter()
                .map(|&k| {
                    ColorId(if k >= 40 { ids.fresh() } else { ids.id(k) })
                })
                .collect();
            let dense = Partition::from_dense(colors, ids.count());
            let reference: Vec<(u8, u32)> = raw
                .iter()
                .enumerate()
                .map(|(i, &k)| if k >= 40 { (1, i as u32) } else { (0, k) })
                .collect();
            prop_assert_eq!(dense, Partition::from_colors(&reference));
        }
    }

    #[test]
    fn equivalence_ignores_representation() {
        let p1 = Partition::from_colors(&["a", "b", "a"]);
        let p2 = Partition::from_colors(&[10u32, 20, 10]);
        assert!(p1.equivalent(&p2));
        let p3 = Partition::from_colors(&[10u32, 20, 20]);
        assert!(!p1.equivalent(&p3));
    }

    #[test]
    fn finer_than() {
        let coarse = Partition::from_colors(&[0u32, 0, 1, 1]);
        let fine = Partition::from_colors(&[0u32, 1, 2, 2]);
        assert!(fine.finer_than(&coarse));
        assert!(!coarse.finer_than(&fine));
        // Every partition is finer than itself.
        assert!(coarse.finer_than(&coarse));
        // Discrete is finer than everything; unit coarser.
        assert!(Partition::discrete(4).finer_than(&coarse));
        assert!(coarse.finer_than(&Partition::unit(4)));
    }

    #[test]
    fn classes_and_sizes() {
        let p = Partition::from_colors(&[0u32, 1, 0, 1, 1]);
        let classes = p.classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], vec![NodeId(0), NodeId(2)]);
        assert_eq!(classes[1], vec![NodeId(1), NodeId(3), NodeId(4)]);
        assert_eq!(p.class_sizes(), vec![2, 3]);
    }

    #[test]
    fn unaligned_detection() {
        // G1: x --p--> "a"; G2: x --p--> "b". Color nodes by label.
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "b");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let labels: Vec<u32> =
            c.graph().nodes().map(|n| c.graph().label(n).0).collect();
        let p = Partition::from_colors(&labels);
        let un = unaligned_nodes(&p, &c);
        // "a" (source node 2) and "b" (target node 5) are unaligned.
        assert_eq!(un, vec![NodeId(2), NodeId(5)]);
        // Both are literals, so UN is empty.
        assert!(unaligned_non_literals(&p, &c).is_empty());
        let counts = SideCounts::new(&p, &c);
        assert_eq!(counts.aligned_classes(), 2); // x and p
    }

    #[test]
    fn discrete_and_unit() {
        let d = Partition::discrete(3);
        assert_eq!(d.num_colors(), 3);
        let u = Partition::unit(3);
        assert_eq!(u.num_colors(), 1);
        assert!(d.finer_than(&u));
        let empty = Partition::unit(0);
        assert_eq!(empty.num_colors(), 0);
        assert!(empty.is_empty());
    }
}
