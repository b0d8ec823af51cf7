//! Bisimulation partition refinement (§3.2).
//!
//! One refinement step recolors a selected subset `X ⊆ N_G` of nodes with
//! `recolor_λ(n) = (λ(n), {(λ(p), λ(o)) | (p, o) ∈ out(n)})` (equation 1)
//! and leaves the rest untouched (equation 2). The step is applied
//! iteratively until the partition stabilises (Definition 4); because
//! `recolor` embeds the previous color, classes only ever split, so the
//! fixpoint test reduces to "did the number of classes change".
//!
//! Colors are interned per round. The engine identifies a recolored
//! node's color by a 128-bit signature of its previous color and its
//! sorted, distinct outbound color pairs — the "simple hashing
//! technique" the paper describes for representing derivation-tree
//! colors as DAGs. Collisions are possible in principle but need ~2⁶⁴
//! distinct classes to become likely; the paper-scale inputs have < 2²³
//! nodes.
//!
//! The heavy lifting lives in [`crate::engine::RefineEngine`]. This
//! module holds the initial partitions, the [`bisimulation_partition`]
//! convenience, and the plainly-written sequential
//! [`reference_refine_step`] / [`reference_refine_fixpoint_mask`] that
//! the identity suites compare the engine against. The reference interns
//! the *exact* key — the previous color plus the pair set itself — so it
//! shares no hash with the engine, and a signature collision in the
//! engine would show up as a difference.

use crate::engine::RefineEngine;
use crate::partition::{ColorId, Partition};
use rdf_model::{FxHashMap, NodeId, OutColumns, TripleGraph};

/// Result of running refinement to fixpoint.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The stabilised partition `Λ*(λ)`.
    pub partition: Partition,
    /// Number of refinement rounds executed, including the final
    /// (non-changing) round that certified the fixpoint.
    pub rounds: usize,
}

/// The node-labelling partition `ℓ_G`: nodes grouped by label, all blank
/// nodes in a single class (the initial partition of Proposition 1).
pub fn label_partition(g: &TripleGraph) -> Partition {
    label_partition_from(g.labels_raw())
}

/// [`label_partition`] from a bare per-node label array — the entry
/// point for sources that never materialise a [`TripleGraph`] (the
/// zero-copy store view behind `rdf info --bisim`).
pub fn label_partition_from(labels: &[rdf_model::LabelId]) -> Partition {
    // Label ids are vocabulary (or store `DICT`) ids: dense keys.
    Partition::from_dense_keys(labels.iter().map(|l| l.0))
}

/// `λ_Bisim = BisimRefine*_{N_G}(ℓ_G)` — captures the maximal
/// bisimulation on `G` (Proposition 1).
pub fn bisimulation_partition(g: &TripleGraph) -> RefineOutcome {
    RefineEngine::auto().bisimulation(g)
}

/// The exact interning key of the reference step: `recolor_λ(n)` of
/// equation 1 itself, not a hash of it.
#[derive(PartialEq, Eq, Hash)]
enum ExactKey {
    /// Node kept its previous color (n ∉ X).
    Kept(u32),
    /// Previous color plus the sorted, distinct outbound color pairs.
    Recolored(u32, Vec<(u32, u32)>),
}

/// One refinement step `BisimRefine_X(λ)` (equation 2) by the
/// *sequential reference* algorithm: a single interning map filled in
/// node order, dense ids straight from insertion order. It is kept —
/// deliberately separate from the engine's blocked rounds and hashed
/// keys — as the oracle the engine must match bit-for-bit at every
/// thread count (asserted by `tests/parallel_refine_identity.rs`).
///
/// Returns the refined partition and whether it is strictly finer than
/// the input (i.e. not equivalent).
pub fn reference_refine_step(
    g: &TripleGraph,
    partition: &Partition,
    in_x: &[bool],
) -> (Partition, bool) {
    let n = g.node_count();
    assert_eq!(in_x.len(), n, "in_x length != node count");
    assert_eq!(partition.len(), n, "partition length != node count");

    let mut map: FxHashMap<ExactKey, u32> = FxHashMap::default();
    let mut new_colors: Vec<ColorId> = Vec::with_capacity(n);

    for node in g.nodes() {
        let prev = partition.color(node).0;
        let key = if in_x[node.index()] {
            let mut pairs: Vec<(u32, u32)> = g
                .out(node)
                .iter()
                .map(|(p, o)| (partition.color(p).0, partition.color(o).0))
                .collect();
            // Equation (1) uses a *set* of color pairs.
            pairs.sort_unstable();
            pairs.dedup();
            ExactKey::Recolored(prev, pairs)
        } else {
            ExactKey::Kept(prev)
        };
        let next = map.len() as u32;
        let id = *map.entry(key).or_insert(next);
        new_colors.push(ColorId(id));
    }

    let new_num = map.len() as u32;
    // recolor embeds the previous color, so classes only split; the
    // partition changed iff the class count grew.
    let changed = new_num != partition.num_colors();
    (Partition::from_dense(new_colors, new_num), changed)
}

/// Run [`reference_refine_step`] to fixpoint: the sequential oracle for
/// [`RefineEngine::refine_fixpoint_mask`].
pub fn reference_refine_fixpoint_mask(
    g: &TripleGraph,
    initial: Partition,
    in_x: &[bool],
) -> RefineOutcome {
    let mut partition = initial;
    let mut rounds = 0;
    loop {
        let (next, changed) = reference_refine_step(g, &partition, in_x);
        rounds += 1;
        partition = next;
        if !changed {
            return RefineOutcome { partition, rounds };
        }
    }
}

/// Why a partition is not a fixpoint of `BisimRefine_X` (Definition 4):
/// the first violation [`verify_stable`] found, in node order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unstable {
    /// The class holds a node in `X` and a node outside it, so one more
    /// round would recolor the one and keep the other.
    MixedClass {
        /// The class.
        color: ColorId,
        /// The class's first member.
        first: NodeId,
        /// A later member on the other side of `X`.
        node: NodeId,
    },
    /// Two members of a class in `X` differ in their sets of outbound
    /// color pairs, so one more round would split the class.
    SplitClass {
        /// The class.
        color: ColorId,
        /// The class's first member.
        first: NodeId,
        /// A later member whose pair set differs from `first`'s.
        node: NodeId,
    },
}

impl std::fmt::Display for Unstable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unstable::MixedClass { color, first, node } => write!(
                f,
                "class {} mixes nodes inside and outside X (nodes {} and {})",
                color.0, first.0, node.0
            ),
            Unstable::SplitClass { color, first, node } => write!(
                f,
                "class {} is not stable: nodes {} and {} differ in \
                 outbound color pairs",
                color.0, first.0, node.0
            ),
        }
    }
}

impl std::error::Error for Unstable {}

/// An exact certificate that `partition` is a fixpoint of
/// `BisimRefine_X` (Definition 4) over the columns `cols`, with `X`
/// given by the mask `in_x`:
///
/// * no class mixes nodes inside and outside `X`;
/// * every member of a class in `X` has the same sorted, distinct set
///   of `(color p, color o)` pairs as the class's first member.
///
/// Together these say one more round leaves every class whole. The
/// check compares the pair sets themselves, so it shares no hash with
/// [`RefineEngine`]: it runs in O(|E| log d) time for out-degree `d`,
/// and keeps each class's first pair set, at most one pair per edge.
pub fn verify_stable(
    partition: &Partition,
    cols: &OutColumns<'_>,
    in_x: &[bool],
) -> Result<(), Unstable> {
    let n = partition.len();
    assert_eq!(in_x.len(), n, "in_x length != partition length");
    assert_eq!(cols.offsets().len(), n + 1, "column view/partition mismatch");
    let colors = partition.colors();
    let (offsets, preds, objs) = (cols.offsets(), cols.preds(), cols.objs());
    const NONE: u32 = u32::MAX;
    // Per class: its first member, and for a class in X the range of
    // that member's pair set in `sets`.
    let mut first = vec![NONE; partition.num_colors() as usize];
    let mut first_set = vec![0..0; first.len()];
    let mut sets: Vec<(u32, u32)> = Vec::new();
    let mut buf: Vec<(u32, u32)> = Vec::new();
    for i in 0..n {
        let c = colors[i];
        let f = first[c.index()];
        if f == NONE {
            first[c.index()] = i as u32;
        } else if in_x[f as usize] != in_x[i] {
            return Err(Unstable::MixedClass {
                color: c,
                first: NodeId(f),
                node: NodeId(i as u32),
            });
        }
        if !in_x[i] {
            continue;
        }
        let edges = offsets[i] as usize..offsets[i + 1] as usize;
        buf.clear();
        buf.extend(
            preds[edges.clone()]
                .iter()
                .zip(&objs[edges])
                .map(|(p, o)| (colors[p.index()].0, colors[o.index()].0)),
        );
        buf.sort_unstable();
        buf.dedup();
        if f == NONE {
            first_set[c.index()] = sets.len()..sets.len() + buf.len();
            sets.extend_from_slice(&buf);
        } else if sets[first_set[c.index()].clone()] != buf[..] {
            return Err(Unstable::SplitClass {
                color: c,
                first: NodeId(f),
                node: NodeId(i as u32),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{GraphBuilder, LabelId, Vocab};

    /// The graph of Figure 2: URIs `w`, `u`, literals `"a"`, `"b"`,
    /// blanks `b1 b2 b3`, predicates `p q r`.
    ///
    /// Edges encoded (one per line):
    ///   w  -p-> b1      w  -p-> u
    ///   b1 -q-> "a"     b1 -r-> b2
    ///   u  -q-> "a"     u  -r-> b3
    ///   b2 -q-> "b"     b3 -q-> "b"
    ///
    /// This exhibits the essential property stated in §2.3: b2 and b3
    /// have identical outbound structure (-q-> "b") and are bisimilar,
    /// while b1 (whose contents also reach b2) is not bisimilar to them.
    fn figure2() -> (Vocab, TripleGraph, [NodeId; 8]) {
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let w = b.add_node(v.uri("w"), &v);
        let u = b.add_node(v.uri("u"), &v);
        let lit_a = b.add_node(v.literal("a"), &v);
        let lit_b = b.add_node(v.literal("b"), &v);
        let b1 = b.add_node(LabelId::BLANK, &v);
        let b2 = b.add_node(LabelId::BLANK, &v);
        let b3 = b.add_node(LabelId::BLANK, &v);
        let p = b.add_node(v.uri("p"), &v);
        let q = b.add_node(v.uri("q"), &v);
        let r = b.add_node(v.uri("r"), &v);
        // b2 and b3 have identical outbound structure: -q-> "b".
        b.add_triple(w, p, b1);
        b.add_triple(w, p, u);
        b.add_triple(b1, q, lit_a);
        b.add_triple(b1, r, b2);
        b.add_triple(u, r, b3);
        b.add_triple(u, q, lit_a);
        b.add_triple(b2, q, lit_b);
        b.add_triple(b3, q, lit_b);
        let g = b.freeze();
        (v, g, [w, u, lit_a, lit_b, b1, b2, b3, p])
    }

    #[test]
    fn label_partition_groups_blanks() {
        let (_, g, ids) = figure2();
        let p = label_partition(&g);
        let [_, _, _, _, b1, b2, b3, _] = ids;
        assert!(p.same_class(b1, b2));
        assert!(p.same_class(b2, b3));
        // URIs with different labels are apart.
        assert!(!p.same_class(NodeId(0), NodeId(1)));
    }

    #[test]
    fn bisimulation_splits_b1_from_b2_b3() {
        let (_, g, ids) = figure2();
        let out = bisimulation_partition(&g);
        let [_, _, _, _, b1, b2, b3, _] = ids;
        assert!(out.partition.same_class(b2, b3), "b2 ~ b3 (Fig 2)");
        assert!(!out.partition.same_class(b1, b2), "b1 !~ b2");
        assert!(!out.partition.same_class(b1, b3), "b1 !~ b3");
    }

    #[test]
    fn refinement_is_monotone() {
        let (_, g, _) = figure2();
        let initial = label_partition(&g);
        let all = vec![true; g.node_count()];
        let (step1, changed1) = reference_refine_step(&g, &initial, &all);
        assert!(changed1);
        assert!(step1.finer_than(&initial));
        let (step2, _) = reference_refine_step(&g, &step1, &all);
        assert!(step2.finer_than(&step1));
    }

    #[test]
    fn fixpoint_is_stable() {
        let (_, g, _) = figure2();
        let out = bisimulation_partition(&g);
        let all = vec![true; g.node_count()];
        let (again, changed) = reference_refine_step(&g, &out.partition, &all);
        assert!(!changed);
        assert!(again.equivalent(&out.partition));
    }

    #[test]
    fn example2_two_rounds_to_stabilise() {
        // Example 2: λ2 ≡ λ1, so refinement of Fig 2's graph stabilises
        // after round 2 certifies round 1 (plus the initial splitting
        // round). Our driver counts all executed rounds.
        let (_, g, _) = figure2();
        let out = bisimulation_partition(&g);
        // One changing round, one certifying round at minimum.
        assert!(out.rounds >= 2);
    }

    #[test]
    fn refinement_restricted_to_x_keeps_others() {
        let (_, g, ids) = figure2();
        let [_, _, _, _, b1, b2, b3, _] = ids;
        let initial = label_partition(&g);
        // Refine only blank nodes (the deblanking restriction).
        let in_x: Vec<bool> =
            g.nodes().map(|n| [b1, b2, b3].contains(&n)).collect();
        let out = RefineEngine::auto()
            .refine_fixpoint_mask(&g, initial.clone(), &in_x);
        // Non-blank nodes keep label-based classes.
        for n in g.nodes() {
            if !g.is_blank(n) {
                for m in g.nodes() {
                    if !g.is_blank(m) {
                        assert_eq!(
                            initial.same_class(n, m),
                            out.partition.same_class(n, m)
                        );
                    }
                }
            }
        }
        // Blanks still split correctly.
        assert!(out.partition.same_class(b2, b3));
        assert!(!out.partition.same_class(b1, b2));
    }

    #[test]
    fn cycle_terminates() {
        // x -p-> y, y -p-> x : refinement on a cycle must terminate.
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let x = b.add_node(LabelId::BLANK, &v);
        let y = b.add_node(LabelId::BLANK, &v);
        let p = b.add_node(v.uri("p"), &v);
        b.add_triple(x, p, y);
        b.add_triple(y, p, x);
        let g = b.freeze();
        let out = bisimulation_partition(&g);
        // x and y are bisimilar (symmetric cycle).
        assert!(out.partition.same_class(x, y));
    }

    #[test]
    fn asymmetric_cycle_splits() {
        // x -p-> y, y -q-> x with p != q: x and y are not bisimilar.
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let x = b.add_node(LabelId::BLANK, &v);
        let y = b.add_node(LabelId::BLANK, &v);
        let p = b.add_node(v.uri("p"), &v);
        let q = b.add_node(v.uri("q"), &v);
        b.add_triple(x, p, y);
        b.add_triple(y, q, x);
        let g = b.freeze();
        let out = bisimulation_partition(&g);
        assert!(!out.partition.same_class(x, y));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().freeze();
        let out = bisimulation_partition(&g);
        assert_eq!(out.partition.len(), 0);
    }

    #[test]
    fn out_pair_set_semantics() {
        // Two blanks, one with a duplicate-colored out pair: {a, a} = {a}.
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let x = b.add_node(LabelId::BLANK, &v);
        let y = b.add_node(LabelId::BLANK, &v);
        let p = b.add_node(v.uri("p"), &v);
        let l1 = b.add_node(LabelId::BLANK, &v); // leaf blank
        let l2 = b.add_node(LabelId::BLANK, &v); // leaf blank, bisimilar to l1
        // x has TWO edges to distinct but bisimilar leaves; y has one.
        b.add_triple(x, p, l1);
        b.add_triple(x, p, l2);
        b.add_triple(y, p, l1);
        let g = b.freeze();
        let out = bisimulation_partition(&g);
        // l1 ~ l2 so out-color sets coincide: x ~ y under bisimulation.
        assert!(out.partition.same_class(l1, l2));
        assert!(out.partition.same_class(x, y));
    }

    #[test]
    fn wrapper_equals_reference_on_figure2() {
        // The engine, at one thread and at several, and the sequential
        // reference must agree exactly: same dense colors, same rounds.
        let (_, g, _) = figure2();
        let all = vec![true; g.node_count()];
        let reference =
            reference_refine_fixpoint_mask(&g, label_partition(&g), &all);
        for t in [1usize, 2, 4] {
            let out = RefineEngine::new(rdf_par::Threads::Fixed(t))
                .refine_fixpoint_mask(&g, label_partition(&g), &all);
            assert_eq!(out.partition.colors(), reference.partition.colors());
            assert_eq!(out.rounds, reference.rounds);
        }
    }
}
