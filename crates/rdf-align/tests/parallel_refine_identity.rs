//! The parallel engine must be *indistinguishable* from the sequential
//! reference: at 1, 2 and 4 threads it must produce partitions with the
//! same dense color vectors — not merely equivalent partitions — for
//! random version pairs, across the Trivial/Deblank/Hybrid method
//! family, on unions larger than one signature batch, and on graphs
//! built to steer the engine's dirty-class worklist; and it must be
//! deterministic run to run at a fixed thread count. This is the
//! determinism guarantee the CLI's `--threads 1` vs `--threads 4` CI
//! diff also checks end to end. The reference interns exact keys, so a
//! signature collision in the engine would fail these suites. Every
//! engine outcome is also certified stable by the exact
//! [`verify_stable`] check of Definition 4.

use proptest::prelude::*;
use rdf_align::engine::RefineEngine;
use rdf_align::methods::{
    blank_out, deblank_partition_with, hybrid_from_with,
    hybrid_partition_with, trivial_partition,
};
use rdf_align::partition::unaligned_non_literals;
use rdf_align::refine::{
    label_partition, reference_refine_fixpoint_mask, verify_stable,
    RefineOutcome, Unstable,
};
use rdf_align::{Partition, Threads};
use rdf_model::{
    CombinedGraph, GraphBuilder, LabelId, NodeId, RdfGraph, RdfGraphBuilder,
    TripleGraph, Vocab,
};

/// A random pair of graph versions sharing a vocabulary: overlapping
/// URI/blank/literal pools so some nodes align, some rename, some churn.
fn arb_versions() -> impl Strategy<Value = (Vocab, RdfGraph, RdfGraph)> {
    (1usize..24, 1usize..24, any::<u64>()).prop_map(|(m1, m2, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut vocab = Vocab::new();
        let build = |vocab: &mut Vocab,
                     triples: usize,
                     next: &mut dyn FnMut() -> u64| {
            let mut b = RdfGraphBuilder::new(vocab);
            for _ in 0..triples {
                let s = format!("s{}", next() % 6);
                let p = format!("p{}", next() % 4);
                let o = format!("o{}", next() % 6);
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
        let g1 = build(&mut vocab, m1, &mut next);
        let g2 = build(&mut vocab, m2, &mut next);
        (vocab, g1, g2)
    })
}

/// The mask of `X` for a list of its members.
fn mask_of(n: usize, members: &[NodeId]) -> Vec<bool> {
    let mut in_x = vec![false; n];
    for m in members {
        in_x[m.index()] = true;
    }
    in_x
}

/// Deblank's `X`: the blank nodes.
fn blank_mask(g: &TripleGraph) -> Vec<bool> {
    g.nodes().map(|n| g.is_blank(n)).collect()
}

/// The exact Definition 4 check on an engine outcome.
fn stable(
    g: &TripleGraph,
    p: &Partition,
    in_x: &[bool],
) -> Result<(), Unstable> {
    verify_stable(p, &g.out_columns(), in_x)
}

/// Sequential-reference Deblank: the method's definition run through
/// [`reference_refine_fixpoint_mask`] instead of the engine.
fn reference_deblank(combined: &CombinedGraph) -> RefineOutcome {
    let g = combined.graph();
    reference_refine_fixpoint_mask(g, label_partition(g), &blank_mask(g))
}

/// Sequential-reference Hybrid from a given base partition.
fn reference_hybrid_from(
    combined: &CombinedGraph,
    base: rdf_align::Partition,
) -> RefineOutcome {
    let g = combined.graph();
    let unaligned = unaligned_non_literals(&base, combined);
    let blanked = blank_out(&base, &unaligned);
    let in_x = mask_of(g.node_count(), &unaligned);
    reference_refine_fixpoint_mask(g, blanked, &in_x)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full bisimulation: engine at every thread count == reference,
    /// same dense colors and same round count.
    #[test]
    fn bisimulation_identical_to_reference((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let g = c.graph();
        let all = vec![true; g.node_count()];
        let reference =
            reference_refine_fixpoint_mask(g, label_partition(g), &all);
        for t in THREAD_COUNTS {
            let out = RefineEngine::new(Threads::Fixed(t)).bisimulation(g);
            prop_assert_eq!(
                out.partition.colors(),
                reference.partition.colors()
            );
            prop_assert_eq!(out.rounds, reference.rounds);
            prop_assert_eq!(stable(g, &out.partition, &all), Ok(()));
        }
    }

    /// Deblank: engine at every thread count == sequential reference.
    #[test]
    fn deblank_identical_to_reference((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let reference = reference_deblank(&c);
        for t in THREAD_COUNTS {
            let mut engine = RefineEngine::new(Threads::Fixed(t));
            let out = deblank_partition_with(&c, &mut engine);
            prop_assert_eq!(
                out.partition.colors(),
                reference.partition.colors()
            );
            let g = c.graph();
            prop_assert_eq!(stable(g, &out.partition, &blank_mask(g)), Ok(()));
        }
    }

    /// Hybrid (from Deblank *and* from Trivial, per §3.4): engine at
    /// every thread count == sequential reference, dense colors equal.
    #[test]
    fn hybrid_identical_to_reference((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let ref_deblank = reference_deblank(&c).partition;
        let ref_hybrid = reference_hybrid_from(&c, ref_deblank);
        let ref_via_trivial =
            reference_hybrid_from(&c, trivial_partition(&c));
        for t in THREAD_COUNTS {
            let mut engine = RefineEngine::new(Threads::Fixed(t));
            let out = hybrid_partition_with(&c, &mut engine);
            prop_assert_eq!(
                out.partition.colors(),
                ref_hybrid.partition.colors()
            );
            let g = c.graph();
            let in_x = mask_of(g.node_count(), &out.unaligned);
            prop_assert_eq!(stable(g, &out.partition, &in_x), Ok(()));
            // The Trivial-seeded hybrid exercises a different initial
            // partition through the same engine scratch (reuse!).
            let via_trivial =
                hybrid_from_with(&c, trivial_partition(&c), &mut engine);
            prop_assert_eq!(
                via_trivial.partition.colors(),
                ref_via_trivial.partition.colors()
            );
            let in_x = mask_of(g.node_count(), &via_trivial.unaligned);
            prop_assert_eq!(stable(g, &via_trivial.partition, &in_x), Ok(()));
        }
    }

    /// Determinism: the same input refined twice at 4 threads — by a
    /// fresh engine and by a reused one — yields identical colors.
    #[test]
    fn four_threads_is_deterministic((vocab, g1, g2) in arb_versions()) {
        let c = CombinedGraph::union(&vocab, &g1, &g2);
        let mut engine = RefineEngine::new(Threads::Fixed(4));
        let first = hybrid_partition_with(&c, &mut engine);
        // Same engine again (scratch warm), then a fresh engine.
        let second = hybrid_partition_with(&c, &mut engine);
        let fresh = hybrid_partition_with(
            &c,
            &mut RefineEngine::new(Threads::Fixed(4)),
        );
        prop_assert_eq!(
            first.partition.colors(),
            second.partition.colors()
        );
        prop_assert_eq!(
            first.partition.colors(),
            fresh.partition.colors()
        );
        prop_assert_eq!(first.rounds, second.rounds);
        let g = c.graph();
        for out in [&first, &second, &fresh] {
            let in_x = mask_of(g.node_count(), &out.unaligned);
            prop_assert_eq!(stable(g, &out.partition, &in_x), Ok(()));
        }
    }
}

/// A version pair whose union holds more than
/// [`rdf_align::engine::BLOCK`] nodes, so first occurrences spread far
/// past one signature batch. Each entity `e{i}` owns a
/// blank record; records point at literals from a small pool and at
/// one of the first 997 records, so refinement takes more than one
/// changing round and classes recur across blocks. The second version
/// renames every seventh entity and edits every eleventh literal.
fn multi_block_versions(entities: usize) -> (Vocab, RdfGraph, RdfGraph) {
    let mut vocab = Vocab::new();
    let mut build = |rename: bool| {
        let mut b = RdfGraphBuilder::new(&mut vocab);
        for i in 0..entities {
            let name = |j: usize| {
                if rename && j.is_multiple_of(7) {
                    format!("n{j}")
                } else {
                    format!("e{j}")
                }
            };
            let record = format!("r{i}");
            let lit = if rename && i.is_multiple_of(11) {
                format!("edited {}", i % 300)
            } else {
                format!("value {}", i % 300)
            };
            b.uub(&name(i), "has", &record);
            b.bul(&record, "value", &lit);
            b.bub(&record, "next", &format!("r{}", i % 997));
            b.uuu(&name(i), "link", &name((i + 1) % entities));
        }
        b.finish()
    };
    let g1 = build(false);
    let g2 = build(true);
    (vocab, g1, g2)
}

/// Deblank and hybrid over a union larger than one batch: the engine
/// at threads {1, 2, 4} == the exact sequential reference.
#[test]
fn multi_block_graph_identical_to_reference() {
    let (vocab, g1, g2) = multi_block_versions(20_000);
    let c = CombinedGraph::union(&vocab, &g1, &g2);
    assert!(
        c.graph().node_count() > rdf_align::engine::BLOCK,
        "the fixture must span several blocks"
    );
    let ref_deblank = reference_deblank(&c);
    let ref_hybrid = reference_hybrid_from(&c, ref_deblank.partition.clone());
    for t in THREAD_COUNTS {
        let mut engine = RefineEngine::new(Threads::Fixed(t));
        let deblank = deblank_partition_with(&c, &mut engine);
        assert_eq!(
            deblank.partition.colors(),
            ref_deblank.partition.colors(),
            "deblank diverged at {t} threads"
        );
        assert_eq!(deblank.rounds, ref_deblank.rounds);
        let g = c.graph();
        assert_eq!(stable(g, &deblank.partition, &blank_mask(g)), Ok(()));
        let hybrid = hybrid_from_with(&c, deblank.partition, &mut engine);
        assert_eq!(
            hybrid.partition.colors(),
            ref_hybrid.partition.colors(),
            "hybrid diverged at {t} threads"
        );
        assert_eq!(hybrid.rounds, ref_hybrid.rounds);
        let in_x = mask_of(g.node_count(), &hybrid.unaligned);
        assert_eq!(stable(g, &hybrid.partition, &in_x), Ok(()));
    }
}

/// A mutant of a Deblank result that merges two of its classes fails
/// the certificate: two blank records with different literals
/// (`SplitClass`), and a blank record with a URI (`MixedClass`).
#[test]
fn merged_deblank_classes_fail_the_certificate() {
    let (vocab, g1, g2) = multi_block_versions(2_000);
    let c = CombinedGraph::union(&vocab, &g1, &g2);
    let g = c.graph();
    let in_x = blank_mask(g);
    let deblank =
        deblank_partition_with(&c, &mut RefineEngine::new(Threads::Fixed(2)));
    assert_eq!(stable(g, &deblank.partition, &in_x), Ok(()));
    // Node ids of v1 follow first mention: e0, has, r0, value,
    // "value 0", next, link, e1, r1, "value 1", ...
    let blank = |k: usize| g.nodes().filter(|&n| g.is_blank(n)).nth(k).unwrap();
    let (r0, r1) = (blank(0), blank(1));
    let e0 = NodeId(0);
    assert!(g.is_uri(e0));
    let merge = |a: NodeId, b: NodeId| {
        let (ca, cb) = (deblank.partition.color(a), deblank.partition.color(b));
        assert_ne!(ca, cb, "the mutant must merge two distinct classes");
        let raw: Vec<u32> = deblank
            .partition
            .colors()
            .iter()
            .map(|&col| if col == cb { ca.0 } else { col.0 })
            .collect();
        Partition::from_colors(&raw)
    };
    assert!(matches!(
        stable(g, &merge(r0, r1), &in_x),
        Err(Unstable::SplitClass { .. })
    ));
    assert!(matches!(
        stable(g, &merge(e0, r0), &in_x),
        Err(Unstable::MixedClass { .. })
    ));
}

/// A deterministic xorshift stream for the fixtures below.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The engine over a union of more than three [`BLOCK`]s whose initial
/// partition and `X` make every class of `X` share its color with
/// nodes outside `X`, whose colors first occur out of color order and
/// in a later block than their class's first member, between members
/// of `X`. Round 1 must part each class from its members outside `X`,
/// and `X`'s members fill more than one signature batch; the result
/// must equal the exact reference bit for bit at 1, 2 and 4 threads.
///
/// [`BLOCK`]: rdf_align::engine::BLOCK
#[test]
fn kept_colors_across_blocks_match_reference() {
    let block = rdf_align::engine::BLOCK;
    let n = 3 * block + 4_321;
    let classes = 8u64;
    let mut next = xorshift(0x5eed);
    let vocab = Vocab::new();
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for _ in 0..n {
        b.add_node(LabelId::BLANK, &vocab);
    }
    // Up to two out-edges per node, over two predicate nodes: few
    // enough classes that splits take several rounds to propagate.
    for s in 0..n as u64 {
        for _ in 0..next() % 3 {
            let p = next() % 2;
            let o = next() % n as u64;
            b.add_triple(NodeId(s as u32), NodeId(p as u32), NodeId(o as u32));
        }
    }
    let g = b.freeze();
    let raw: Vec<u64> = (0..n).map(|_| next() % classes).collect();
    let initial = Partition::from_colors(&raw);
    // X: every third node and the whole first block. Every class's
    // first member lies in the first block, so its first kept member
    // lies in a later one.
    let in_x: Vec<bool> = (0..n).map(|i| i < block || i % 3 == 0).collect();

    // The fixture has what the test is about: in round 1, kept colors
    // first occur out of color order, some of them in a later block
    // than their class's first member, with recolored nodes between.
    let colors = initial.colors();
    let mut first_member = vec![usize::MAX; initial.num_colors() as usize];
    let mut seen_kept = vec![false; first_member.len()];
    let (mut out_of_order, mut across_blocks) = (false, false);
    let mut last_kept_color = None;
    for i in 0..n {
        let c = colors[i].index();
        if first_member[c] == usize::MAX {
            first_member[c] = i;
        }
        if in_x[i] || seen_kept[c] {
            continue;
        }
        seen_kept[c] = true;
        out_of_order |= last_kept_color.is_some_and(|l| c < l);
        across_blocks |= first_member[c] / block < i / block;
        last_kept_color = Some(c);
    }
    assert!(out_of_order && across_blocks, "fixture lost its shape");

    let reference = reference_refine_fixpoint_mask(&g, initial.clone(), &in_x);
    assert!(reference.rounds >= 3, "needs several changing rounds");
    for t in THREAD_COUNTS {
        let out = RefineEngine::new(Threads::Fixed(t))
            .refine_fixpoint_mask(&g, initial.clone(), &in_x);
        assert_eq!(
            out.partition.colors(),
            reference.partition.colors(),
            "diverged at {t} threads"
        );
        assert_eq!(out.rounds, reference.rounds);
        assert_eq!(stable(&g, &out.partition, &in_x), Ok(()));
    }
}

/// A hybrid outcome with two of its classes merged fails
/// [`rdf_align::HybridOutcome::verify`], the check behind
/// `rdf align --method hybrid --verify`. Each of the two classes pairs
/// a renamed entity with its new name (`e7` with `n7`, `e14` with
/// `n14`), so the merged class holds records with different literals.
#[test]
fn merged_hybrid_classes_fail_verify() {
    let (vocab, g1, g2) = multi_block_versions(2_000);
    let c = CombinedGraph::union(&vocab, &g1, &g2);
    let g = c.graph();
    let mut out =
        hybrid_partition_with(&c, &mut RefineEngine::new(Threads::Fixed(2)));
    assert_eq!(out.verify(&c), Ok(()));
    let entity = |name: &str| {
        g.nodes()
            .find(|&n| g.is_uri(n) && vocab.text(g.label(n)) == name)
            .unwrap()
    };
    let (a, b) = (entity("e7"), entity("e14"));
    assert!(out.unaligned.contains(&a) && out.unaligned.contains(&b));
    let (ca, cb) = (out.partition.color(a), out.partition.color(b));
    assert_ne!(ca, cb, "the mutant must merge two distinct classes");
    let raw: Vec<u32> = out
        .partition
        .colors()
        .iter()
        .map(|&col| if col == cb { ca.0 } else { col.0 })
        .collect();
    out.partition = Partition::from_colors(&raw);
    assert!(matches!(out.verify(&c), Err(Unstable::SplitClass { .. })));
}

/// A graph and `X` built so that the engine's dirty-class worklist is
/// what decides the result:
///
/// * two blank chains of `len` ≥ 4 nodes that end in different
///   literals, so their heads part only in round `len` and the
///   fixpoint takes at least 5 rounds, and a blank cycle that reaches
///   a literal from one member;
/// * blank predicates `q0`, `q1` that part in round 1, and blank
///   subjects `s0 -q0-> o`, `s1 -q1-> o` that part in round 2 only
///   through the predicate position;
/// * a label class that crosses `X`'s boundary: URIs `w` in `X` and
///   `w'` outside it, with the same label. Blanks `b -p-> w` and
///   `a -p-> w'` share a class after round 1 and part in round 2, as
///   do `a2 -r-> w'` and `b2 -r-> w`; `b` comes first in node order in
///   the one pair and `a2` in the other, so each side of the boundary
///   heads one class;
/// * a pool of extra blanks and of URIs that share labels, joined by
///   random edges; for odd `seed >> 63`, the pool's nodes join `X` at
///   random, so `X` shares label classes with nodes outside it, else
///   the pool's blanks make up the rest of `X`.
fn worklist_case(
    len: usize,
    pool: usize,
    seed: u64,
) -> (TripleGraph, Vec<bool>) {
    let mixed = seed >> 63 == 1;
    let mut next = xorshift(seed);
    let mut v = Vocab::new();
    let [p, o, w, r, u0, u1] =
        ["p", "o", "w", "r", "u0", "u1"].map(|t| v.uri(t));
    let lits = [v.literal("a"), v.literal("b")];
    let mut b = GraphBuilder::new();
    let mut x: Vec<NodeId> = Vec::new();
    let mut blanks = |b: &mut GraphBuilder, k: usize| -> Vec<NodeId> {
        let nodes: Vec<NodeId> =
            (0..k).map(|_| b.add_node(LabelId::BLANK, &v)).collect();
        x.extend(&nodes);
        nodes
    };
    let p = b.add_node(p, &v);
    let o = b.add_node(o, &v);
    let lit = lits.map(|l| b.add_node(l, &v));
    for end in lit {
        let chain = blanks(&mut b, len);
        for pair in chain.windows(2) {
            b.add_triple(pair[0], p, pair[1]);
        }
        b.add_triple(chain[len - 1], p, end);
    }
    let cycle = blanks(&mut b, 2 + (next() % 5) as usize);
    for (k, &n) in cycle.iter().enumerate() {
        b.add_triple(n, p, cycle[(k + 1) % cycle.len()]);
    }
    b.add_triple(cycle[0], p, lit[(next() % 2) as usize]);
    let q = blanks(&mut b, 2);
    let s = blanks(&mut b, 2);
    for k in 0..2 {
        b.add_triple(q[k], p, lit[k]);
        b.add_triple(s[k], q[k], o);
    }
    let (w_in, w_out) = (b.add_node(w, &v), b.add_node(w, &v));
    let r = b.add_node(r, &v);
    let ab = blanks(&mut b, 4);
    b.add_triple(ab[0], p, w_in);
    b.add_triple(ab[1], p, w_out);
    b.add_triple(ab[2], r, w_out);
    b.add_triple(ab[3], r, w_in);
    let extra: Vec<NodeId> = (0..pool)
        .map(|k| match next() % 3 {
            0 => b.add_node([u0, u1][k % 2], &v),
            _ => b.add_node(LabelId::BLANK, &v),
        })
        .collect();
    let n = u64::from(extra.last().unwrap_or(&ab[3]).0) + 1;
    let preds = [p, q[0], q[1]];
    for &e in &extra {
        for _ in 0..next() % 3 {
            let obj = NodeId((next() % n) as u32);
            b.add_triple(e, preds[(next() % 3) as usize], obj);
        }
    }
    let g = b.freeze();
    let mut in_x = vec![false; g.node_count()];
    for &m in x.iter().chain([&w_in]) {
        in_x[m.index()] = true;
    }
    for &e in &extra {
        in_x[e.index()] = if mixed {
            next().is_multiple_of(2)
        } else {
            g.is_blank(e)
        };
    }
    (g, in_x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dirty-class worklist equals the exact reference: at 1, 2
    /// and 4 threads, on the cases of [`worklist_case`], the colors are
    /// bit-identical, the round counts equal (at least 4), and the
    /// partition is certified stable.
    #[test]
    fn dirty_worklist_identical_to_reference(
        len in 4usize..9,
        pool in 0usize..24,
        seed in any::<u64>(),
    ) {
        let (g, in_x) = worklist_case(len, pool, seed);
        let initial = label_partition(&g);
        let reference =
            reference_refine_fixpoint_mask(&g, initial.clone(), &in_x);
        prop_assert!(reference.rounds >= 4);
        for t in THREAD_COUNTS {
            let out = RefineEngine::new(Threads::Fixed(t))
                .refine_fixpoint_mask(&g, initial.clone(), &in_x);
            prop_assert_eq!(
                out.partition.colors(),
                reference.partition.colors()
            );
            prop_assert_eq!(out.rounds, reference.rounds);
            prop_assert_eq!(stable(&g, &out.partition, &in_x), Ok(()));
        }
    }
}
