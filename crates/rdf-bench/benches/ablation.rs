//! Ablation benchmarks for four design choices:
//!
//! 1. prefix bound in Algorithm 1: the safe `k − ⌈θk⌉ + 1` vs the
//!    paper-literal `⌈kθ⌉`;
//! 2. σ_NL's rank coupling vs a full Hungarian matching on the same
//!    out-edge weights;
//! 3. overlap alignment vs the σ_Edit matrix at the size where σ_Edit's
//!    quadratic cost takes over;
//! 4. similarity flooding (related-work baseline) at the same size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdf_align::methods::hybrid_partition;
use rdf_align::overlap::{overlap_match, PrefixBound};
use rdf_align::overlap_align::{
    overlap_align, sigma_nl, split_words, OverlapConfig,
};
use rdf_align::weighted::WeightedPartition;
use rdf_datagen::{generate_gtopdb, GtopdbConfig};
use rdf_edit::algebra::oplus;
use rdf_edit::flooding::{Flooding, FloodingConfig};
use rdf_edit::hungarian::hungarian_rect;
use rdf_edit::sigma_edit::{SigmaEdit, SigmaEditConfig};
use rdf_model::{CombinedGraph, NodeId};

fn prefix_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/prefix-bound");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    let n = 3000usize;
    let a: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let b_nodes: Vec<NodeId> = (n as u32..2 * n as u32).map(NodeId).collect();
    let mk = |i: usize| {
        split_words(&format!(
            "shared common tokens {} plus unique item {}",
            i % 61,
            i
        ))
    };
    let char_a: Vec<Vec<u64>> = (0..n).map(mk).collect();
    let char_b: Vec<Vec<u64>> = (0..n).map(mk).collect();
    for (name, bound) in [
        ("safe", PrefixBound::Safe),
        ("paper-literal", PrefixBound::PaperLiteral),
    ] {
        group.bench_function(name, |bench| {
            bench.iter(|| {
                overlap_match(
                    &a,
                    &char_a,
                    &b_nodes,
                    &char_b,
                    0.65,
                    |_, _| 0.0,
                    bound,
                )
            })
        });
    }
    group.finish();
}

/// A Hungarian-based σ_NL for comparison with the rank-coupling one.
fn sigma_nl_hungarian(
    g: &rdf_model::TripleGraph,
    xi: &WeightedPartition,
    n: NodeId,
    m: NodeId,
) -> f64 {
    let out_n = g.out(n);
    let out_m = g.out(m);
    let f = out_n.len().max(out_m.len());
    if f == 0 {
        return 0.0;
    }
    if out_n.is_empty() || out_m.is_empty() {
        return 1.0;
    }
    let cost: Vec<Vec<f64>> = out_n
        .iter()
        .map(|&(p1, o1)| {
            out_m
                .iter()
                .map(|&(p2, o2)| {
                    let dp = if xi.color(p1) == xi.color(p2) {
                        oplus(xi.weight(p1), xi.weight(p2))
                    } else {
                        1.0
                    };
                    let dq = if xi.color(o1) == xi.color(o2) {
                        oplus(xi.weight(o1), xi.weight(o2))
                    } else {
                        1.0
                    };
                    oplus(dp, dq)
                })
                .collect()
        })
        .collect();
    let (pairs, cost_sum) = hungarian_rect(&cost);
    let r = (out_n.len() + out_m.len() - 2 * pairs.len()) as f64;
    ((cost_sum + r) / f as f64).min(1.0)
}

fn nl_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/sigma-nl");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(20);
    let ds = generate_gtopdb(&GtopdbConfig {
        ligands: 100,
        versions: 2,
        ..GtopdbConfig::default()
    });
    let combined = CombinedGraph::union(
        &ds.vocab,
        &ds.versions[0].graph,
        &ds.versions[1].graph,
    );
    let xi =
        WeightedPartition::zero(hybrid_partition(&combined).partition);
    // Pair up source/target URIs with outgoing edges.
    let pairs: Vec<(NodeId, NodeId)> = combined
        .source_nodes()
        .filter(|&n| combined.graph().out_degree(n) > 2)
        .zip(
            combined
                .target_nodes()
                .filter(|&n| combined.graph().out_degree(n) > 2),
        )
        .take(200)
        .collect();
    group.bench_function("rank-coupling", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(n, m)| sigma_nl(combined.graph(), &xi, n, m))
                .sum::<f64>()
        })
    });
    group.bench_function("hungarian", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(n, m)| {
                    sigma_nl_hungarian(combined.graph(), &xi, n, m)
                })
                .sum::<f64>()
        })
    });
    group.finish();
}

fn overlap_vs_sigma_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/overlap-vs-sigma-edit");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    for &ligands in &[10usize, 30] {
        let ds = generate_gtopdb(&GtopdbConfig {
            ligands,
            versions: 2,
            ..GtopdbConfig::default()
        });
        let combined = CombinedGraph::union(
            &ds.vocab,
            &ds.versions[0].graph,
            &ds.versions[1].graph,
        );
        let nodes = combined.graph().node_count();
        let colors: Vec<u32> = hybrid_partition(&combined)
            .partition
            .colors()
            .iter()
            .map(|x| x.0)
            .collect();
        group.bench_with_input(
            BenchmarkId::new("overlap", nodes),
            &combined,
            |b, cg| {
                b.iter(|| {
                    overlap_align(cg, &ds.vocab, OverlapConfig::default())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sigma-edit", nodes),
            &combined,
            |b, cg| {
                b.iter(|| {
                    SigmaEdit::compute(
                        cg,
                        &ds.vocab,
                        &colors,
                        SigmaEditConfig {
                            epsilon: 1e-6,
                            max_iterations: 4,
                        },
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("similarity-flooding", nodes),
            &combined,
            |b, cg| {
                b.iter(|| {
                    Flooding::compute(
                        cg,
                        &ds.vocab,
                        FloodingConfig {
                            epsilon: 1e-4,
                            max_iterations: 8,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, prefix_bounds, nl_matching, overlap_vs_sigma_edit);
criterion_main!(benches);
