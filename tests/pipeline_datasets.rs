//! Full-pipeline integration tests over the three synthetic datasets,
//! asserting the qualitative findings of §5.

use rdf_align_repro::prelude::*;
use rdf_align::methods::alignment_subset;
use rdf_align::partition::unaligned_nodes;

fn efo_small() -> rdf_datagen::EvolvingDataset {
    generate_efo(&EfoConfig {
        classes: 150,
        ..EfoConfig::default()
    })
}

fn gtopdb_small() -> rdf_datagen::EvolvingDataset {
    generate_gtopdb(&GtopdbConfig {
        ligands: 60,
        ..GtopdbConfig::default()
    })
}

#[test]
fn efo_self_alignment_is_complete_for_deblank() {
    // The Fig 10 diagonal: deblank self-alignment ratio is exactly 1.
    let ds = efo_small();
    for v in ds.versions.iter().take(3) {
        let c = CombinedGraph::union(&ds.vocab, &v.graph, &v.graph);
        let d = deblank_partition(&c).partition;
        assert!(unaligned_nodes(&d, &c).is_empty());
        assert!((edge_stats(&d, &c).ratio() - 1.0).abs() < 1e-12);
    }
}

#[test]
fn efo_ratio_decreases_with_version_distance() {
    // The Fig 10 gradient: the further apart, the lower the ratio.
    let ds = efo_small();
    let ratio = |i: usize, j: usize| {
        let c = CombinedGraph::union(
            &ds.vocab,
            &ds.versions[i].graph,
            &ds.versions[j].graph,
        );
        edge_stats(&deblank_partition(&c).partition, &c).ratio()
    };
    let near = ratio(4, 5);
    let far = ratio(4, 9);
    assert!(near > far, "near {near} far {far}");
}

#[test]
fn efo_hierarchy_holds_on_every_consecutive_pair() {
    let ds = efo_small();
    for i in 0..ds.len() - 1 {
        let c = CombinedGraph::union(
            &ds.vocab,
            &ds.versions[i].graph,
            &ds.versions[i + 1].graph,
        );
        let t = trivial_partition(&c);
        let d = deblank_partition(&c).partition;
        let h = hybrid_partition(&c).partition;
        assert!(alignment_subset(&t, &d, &c), "pair {i}");
        assert!(alignment_subset(&d, &h, &c), "pair {i}");
    }
}

#[test]
fn efo_migration_recovered_by_hybrid() {
    // Across the prefix-migration wave, Hybrid recovers substantially
    // more edges than Deblank (the Fig 11 left matrix).
    let ds = efo_small();
    let m = EfoConfig::default().migration_version;
    let c = CombinedGraph::union(
        &ds.vocab,
        &ds.versions[m - 1].graph,
        &ds.versions[m].graph,
    );
    let d = edge_stats(&deblank_partition(&c).partition, &c);
    let h = edge_stats(&hybrid_partition(&c).partition, &c);
    assert!(
        h.aligned_instances() > d.aligned_instances() + 50,
        "hybrid {} vs deblank {}",
        h.aligned_instances(),
        d.aligned_instances()
    );
}

#[test]
fn gtopdb_trivial_aligns_no_uris() {
    // §5.2: distinct prefixes, no blanks — trivial aligns no non-literal
    // nodes.
    let ds = gtopdb_small();
    let c = CombinedGraph::union(
        &ds.vocab,
        &ds.versions[0].graph,
        &ds.versions[1].graph,
    );
    let t = trivial_partition(&c);
    assert_eq!(node_counts(&t, &c).aligned_classes, 0);
    // Deblank coincides with trivial here (no blanks).
    let d = deblank_partition(&c).partition;
    assert_eq!(node_counts(&d, &c).aligned_classes, 0);
}

#[test]
fn gtopdb_hybrid_recovers_most_and_overlap_more() {
    let ds = gtopdb_small();
    for i in [0usize, 2] {
        let c = CombinedGraph::union(
            &ds.vocab,
            &ds.versions[i].graph,
            &ds.versions[i + 1].graph,
        );
        let gt = ds.ground_truth(i, i + 1);
        let h = classify_matches(&hybrid_partition(&c).partition, &c, &gt);
        let o = classify_matches(
            &overlap_align(&c, &ds.vocab, OverlapConfig::default())
                .weighted
                .partition,
            &c,
            &gt,
        );
        // Hybrid leaves changed tuples missing; Overlap recovers them.
        assert!(h.missing > 0, "pair {i}: hybrid missing = 0?");
        assert!(
            o.missing < h.missing,
            "pair {i}: overlap {} !< hybrid {}",
            o.missing,
            h.missing
        );
        assert!(o.exact >= h.exact, "pair {i}");
        // Classification partitions the non-literal nodes.
        let nl = c
            .graph()
            .nodes()
            .filter(|&n| !c.graph().is_literal(n))
            .count();
        assert_eq!(h.total(), nl);
        assert_eq!(o.total(), nl);
    }
}

#[test]
fn gtopdb_overlap_threshold_tradeoff() {
    // Fig 15: lowering θ reduces missing matches; raising θ cannot
    // create false matches out of nothing.
    let ds = gtopdb_small();
    let c = CombinedGraph::union(
        &ds.vocab,
        &ds.versions[2].graph,
        &ds.versions[3].graph,
    );
    let gt = ds.ground_truth(2, 3);
    let run = |theta: f64| {
        classify_matches(
            &overlap_align(&c, &ds.vocab, OverlapConfig { theta })
            .weighted
            .partition,
            &c,
            &gt,
        )
    };
    let low = run(0.45);
    let high = run(0.95);
    assert!(low.missing <= high.missing, "low {low:?} high {high:?}");
}

#[test]
fn dbpedia_alignment_scales_and_aligns_persistent_entities() {
    let ds = generate_dbpedia(&DbpediaConfig {
        categories: 150,
        articles: 600,
        ..DbpediaConfig::default()
    });
    let c = CombinedGraph::union(
        &ds.vocab,
        &ds.versions[0].graph,
        &ds.versions[1].graph,
    );
    let gt = ds.ground_truth(0, 1);
    let t = trivial_partition(&c);
    let b = classify_matches(&t, &c, &gt);
    // DBpedia keeps URIs stable: trivial alignment is already strong.
    assert!(b.exact_fraction() > 0.9, "exact fraction {}", b.exact_fraction());
}

#[test]
fn weights_zero_when_nothing_edited() {
    // Self-alignment through the overlap pipeline must not invent
    // weights.
    let ds = gtopdb_small();
    let c = CombinedGraph::union(
        &ds.vocab,
        &ds.versions[0].graph,
        &ds.versions[0].graph,
    );
    let out = overlap_align(&c, &ds.vocab, OverlapConfig::default());
    assert!(out.weighted.weights().iter().all(|&w| w == 0.0));
}
