//! Integration tests encoding the paper's worked examples end-to-end
//! (Figure 1, the method hierarchy of §3, Theorem 1 of §4.7).

use rdf_align_repro::prelude::*;
use rdf_align::methods::alignment_subset;
use rdf_edit::algebra::oplus;

/// Build the two versions of Figure 1 over a shared vocabulary.
fn figure1() -> (Vocab, RdfGraph, RdfGraph) {
    let mut vocab = Vocab::new();
    let v1 = {
        let mut b = RdfGraphBuilder::new(&mut vocab);
        b.uub("ss", "address", "b1");
        b.uuu("ss", "employer", "ed-uni");
        b.uub("ss", "name", "b2");
        b.bul("b1", "zip", "EH8");
        b.bul("b1", "city", "Edinburgh");
        b.uul("ed-uni", "name", "University of Edinburgh");
        b.uul("ed-uni", "city", "Edinburgh");
        b.bul("b2", "first", "Sławek");
        b.bul("b2", "middle", "Paweł");
        b.bul("b2", "last", "Staworko");
        b.finish()
    };
    let v2 = {
        let mut b = RdfGraphBuilder::new(&mut vocab);
        b.uub("ss", "address", "b3");
        b.uuu("ss", "employer", "uoe");
        b.uub("ss", "name", "b4");
        b.bul("b3", "zip", "EH8");
        b.bul("b3", "city", "Edinburgh");
        b.uul("uoe", "name", "University of Edinburgh");
        b.uul("uoe", "city", "Edinburgh");
        b.bul("b4", "first", "Sławomir");
        b.bul("b4", "last", "Staworko");
        b.finish()
    };
    (vocab, v1, v2)
}

fn uri_on(
    vocab: &Vocab,
    c: &CombinedGraph,
    side: Side,
    text: &str,
) -> NodeId {
    let nodes: Vec<NodeId> = match side {
        Side::Source => c.source_nodes().collect(),
        Side::Target => c.target_nodes().collect(),
    };
    nodes
        .into_iter()
        .find(|&n| {
            c.graph().is_uri(n) && vocab.text(c.graph().label(n)) == text
        })
        .unwrap_or_else(|| panic!("no URI {text}"))
}

fn blank_named(
    graphs: (&RdfGraph, &RdfGraph),
    c: &CombinedGraph,
    name: &str,
) -> NodeId {
    for n in c.source_nodes() {
        if c.graph().is_blank(n) && graphs.0.blank_name(n) == Some(name) {
            return n;
        }
    }
    for n in c.target_nodes() {
        let (_, local) = c.to_local(n);
        if c.graph().is_blank(n) && graphs.1.blank_name(local) == Some(name) {
            return n;
        }
    }
    panic!("no blank {name}")
}

#[test]
fn figure1_trivial_aligns_labels_only() {
    let (vocab, v1, v2) = figure1();
    let c = CombinedGraph::union(&vocab, &v1, &v2);
    let t = trivial_partition(&c);
    let ss1 = uri_on(&vocab, &c, Side::Source, "ss");
    let ss2 = uri_on(&vocab, &c, Side::Target, "ss");
    assert!(t.same_class(ss1, ss2));
    // Different URIs unaligned.
    let ed = uri_on(&vocab, &c, Side::Source, "ed-uni");
    let uoe = uri_on(&vocab, &c, Side::Target, "uoe");
    assert!(!t.same_class(ed, uoe));
    // Blanks unaligned.
    let b1 = blank_named((&v1, &v2), &c, "b1");
    let b3 = blank_named((&v1, &v2), &c, "b3");
    assert!(!t.same_class(b1, b3));
}

#[test]
fn figure1_deblank_aligns_address_records() {
    let (vocab, v1, v2) = figure1();
    let c = CombinedGraph::union(&vocab, &v1, &v2);
    let d = deblank_partition(&c).partition;
    let b1 = blank_named((&v1, &v2), &c, "b1");
    let b3 = blank_named((&v1, &v2), &c, "b3");
    assert!(d.same_class(b1, b3), "address records align (Fig 1)");
    // The name records differ in content: not aligned by bisimulation.
    let b2 = blank_named((&v1, &v2), &c, "b2");
    let b4 = blank_named((&v1, &v2), &c, "b4");
    assert!(!d.same_class(b2, b4));
}

#[test]
fn figure1_hybrid_aligns_renamed_university() {
    let (vocab, v1, v2) = figure1();
    let c = CombinedGraph::union(&vocab, &v1, &v2);
    let h = hybrid_partition(&c).partition;
    let ed = uri_on(&vocab, &c, Side::Source, "ed-uni");
    let uoe = uri_on(&vocab, &c, Side::Target, "uoe");
    assert!(h.same_class(ed, uoe), "ed-uni ~ uoe under Hybrid (Fig 1)");
}

#[test]
fn figure1_sigma_edit_aligns_name_records() {
    let (vocab, v1, v2) = figure1();
    let c = CombinedGraph::union(&vocab, &v1, &v2);
    let h = hybrid_partition(&c).partition;
    let colors: Vec<u32> = h.colors().iter().map(|x| x.0).collect();
    let sigma =
        SigmaEdit::compute(&c, &vocab, &colors, SigmaEditConfig::default());
    let b2 = blank_named((&v1, &v2), &c, "b2");
    let b4 = blank_named((&v1, &v2), &c, "b4");
    // σEdit(b2, b4): first names at edit distance 4/8, middle unmatched:
    // (0.5 + 0 + 1) / 3 = 0.5.
    let d = sigma.distance(b2, b4);
    assert!((d - 0.5).abs() < 1e-9, "σEdit(b2,b4) = {d}");
    // Threshold 0.5 aligns them; 0.4 does not.
    assert!(sigma
        .align_threshold(0.5)
        .iter()
        .any(|&(n, m, _)| n == b2 && m == b4));
    assert!(!sigma
        .align_threshold(0.4)
        .iter()
        .any(|&(n, m, _)| n == b2 && m == b4));
}

#[test]
fn method_hierarchy_on_figure1() {
    let (vocab, v1, v2) = figure1();
    let c = CombinedGraph::union(&vocab, &v1, &v2);
    let t = trivial_partition(&c);
    let d = deblank_partition(&c).partition;
    let h = hybrid_partition(&c).partition;
    assert!(alignment_subset(&t, &d, &c));
    assert!(alignment_subset(&d, &h, &c));
}

#[test]
fn theorem1_overlap_distance_bounds_sigma_edit() {
    // Theorem 1 (⊕ form; ⊕ is defined in `rdf_edit::algebra`): pairs
    // aligned by the overlap partition satisfy σEdit(n, m) ≤ ω(n) ⊕ ω(m).
    let (vocab, v1, v2) = figure1();
    let c = CombinedGraph::union(&vocab, &v1, &v2);
    let outcome = overlap_align(&c, &vocab, OverlapConfig::default());
    let xi = &outcome.weighted;
    let hybrid = hybrid_partition(&c).partition;
    let colors: Vec<u32> = hybrid.colors().iter().map(|x| x.0).collect();
    let sigma =
        SigmaEdit::compute(&c, &vocab, &colors, SigmaEditConfig::default());
    for s in c.source_nodes() {
        for t in c.target_nodes() {
            if xi.partition.same_class(s, t) {
                let bound = oplus(xi.weight(s), xi.weight(t));
                let d = sigma.distance(s, t);
                assert!(
                    d <= bound + 1e-9,
                    "σEdit({s}, {t}) = {d} > {bound}"
                );
            }
        }
    }
}

#[test]
fn ntriples_round_trip_of_figure1() {
    let (vocab, v1, _) = figure1();
    let text = rdf_io::write_graph(&v1, &vocab);
    let mut fresh = Vocab::new();
    let parsed = rdf_io::parse_graph(&text, &mut fresh).unwrap();
    assert_eq!(parsed.triple_count(), v1.triple_count());
    assert_eq!(parsed.node_count(), v1.node_count());
    // Unicode names survive.
    assert!(fresh.find_literal("Sławek").is_some());
}
