//! One function per figure of the paper's evaluation section (§5).
//!
//! Each function generates (or receives) the synthetic dataset, runs the
//! alignment methods, and returns structured results; the `repro` binary
//! renders them as text. README.md ("Micro-benchmarks and figures")
//! says how to run it.

use crate::render::{matrix_table, simple_table, stacked_rows};
use rdf_align::metrics::{classify_matches, edge_stats, node_counts};
use rdf_align::methods::{
    deblank_partition, hybrid_partition, trivial_partition,
};
use rdf_align::overlap_align::{overlap_align, OverlapConfig};
use rdf_align::MatchBreakdown;
use rdf_datagen::{
    generate_dbpedia, generate_efo, generate_gtopdb, DbpediaConfig,
    EfoConfig, EvolvingDataset, GtopdbConfig,
};
use rdf_model::{CombinedGraph, GraphStats};
use std::time::Instant;

/// Harness-wide options.
#[derive(Debug, Clone, Copy)]
pub struct ReproOptions {
    /// Dataset scale factor (1.0 = laptop default).
    pub scale: f64,
    /// Overlap threshold θ.
    pub theta: f64,
}

impl Default for ReproOptions {
    fn default() -> Self {
        ReproOptions {
            scale: 1.0,
            theta: 0.65,
        }
    }
}

fn combined(
    ds: &EvolvingDataset,
    i: usize,
    j: usize,
) -> CombinedGraph {
    CombinedGraph::union(
        &ds.vocab,
        &ds.versions[i].graph,
        &ds.versions[j].graph,
    )
}

/// Fig 9: EFO dataset version statistics.
pub fn fig9(opts: &ReproOptions) -> String {
    let ds = generate_efo(&EfoConfig::default().scaled(opts.scale));
    render_stats_table(
        "Figure 9: EFO-like dataset versions (nodes by kind, edges)",
        &ds,
    )
}

/// Fig 12: GtoPdb dataset version statistics.
pub fn fig12(opts: &ReproOptions) -> String {
    let ds = generate_gtopdb(&GtopdbConfig::default().scaled(opts.scale));
    render_stats_table(
        "Figure 12: GtoPdb-like dataset versions (no blanks)",
        &ds,
    )
}

fn render_stats_table(caption: &str, ds: &EvolvingDataset) -> String {
    let rows: Vec<Vec<String>> = ds
        .versions
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let s: GraphStats = v.stats();
            vec![
                (i + 1).to_string(),
                s.uris.to_string(),
                s.blanks.to_string(),
                s.literals.to_string(),
                s.edges.to_string(),
                format!("{:.1}%", 100.0 * s.literal_fraction()),
                format!("{:.1}%", 100.0 * s.blank_fraction()),
            ]
        })
        .collect();
    format!(
        "{caption}\n{}",
        simple_table(
            &["Version", "URIs", "Blanks", "Literals", "Edges", "Lit%", "Blank%"],
            &rows,
        )
    )
}

/// Fig 10: Trivial and Deblank aligned-edge ratio over all version pairs.
pub fn fig10(opts: &ReproOptions) -> String {
    let ds = generate_efo(&EfoConfig::default().scaled(opts.scale));
    let n = ds.len();
    let mut trivial = vec![vec![0.0; n]; n];
    let mut deblank = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            let c = combined(&ds, j, i); // row = target version, col = source
            trivial[i][j] = edge_stats(&trivial_partition(&c), &c).ratio();
            deblank[i][j] =
                edge_stats(&deblank_partition(&c).partition, &c).ratio();
        }
    }
    format!(
        "Figure 10: aligned-edge ratio (Jaccard over edge classes)\n\n{}\n{}",
        matrix_table("Trivial alignment", &trivial, 2),
        matrix_table("Deblank alignment (diagonal must be 1.00)", &deblank, 2)
    )
}

/// Fig 11: edges additionally aligned by Hybrid over Deblank and by
/// Overlap over Hybrid.
pub fn fig11(opts: &ReproOptions) -> String {
    let ds = generate_efo(&EfoConfig::default().scaled(opts.scale));
    let n = ds.len();
    let mut hybrid_gain = vec![vec![0.0; n]; n];
    let mut overlap_gain = vec![vec![0.0; n]; n];
    let cfg = OverlapConfig { theta: opts.theta };
    for i in 0..n {
        for j in 0..n {
            let c = combined(&ds, j, i);
            let d = edge_stats(&deblank_partition(&c).partition, &c);
            let h = edge_stats(&hybrid_partition(&c).partition, &c);
            let o = edge_stats(
                &overlap_align(&c, &ds.vocab, cfg).weighted.partition,
                &c,
            );
            hybrid_gain[i][j] = (h.aligned_instances() as f64
                - d.aligned_instances() as f64)
                .max(0.0);
            overlap_gain[i][j] = (o.aligned_instances() as f64
                - h.aligned_instances() as f64)
                .max(0.0);
        }
    }
    format!(
        "Figure 11: additionally aligned edges (absolute counts)\n\n{}\n{}",
        matrix_table("Hybrid vs Deblank", &hybrid_gain, 0),
        matrix_table("Overlap vs Hybrid", &overlap_gain, 0)
    )
}

/// Fig 13: aligned node counts for consecutive GtoPdb version pairs.
pub fn fig13(opts: &ReproOptions) -> String {
    let ds = generate_gtopdb(&GtopdbConfig::default().scaled(opts.scale));
    let cfg = OverlapConfig { theta: opts.theta };
    let mut rows = Vec::new();
    for i in 0..ds.len() - 1 {
        let c = combined(&ds, i, i + 1);
        let gt = ds.ground_truth(i, i + 1);
        let h = node_counts(&hybrid_partition(&c).partition, &c);
        let o = node_counts(
            &overlap_align(&c, &ds.vocab, cfg).weighted.partition,
            &c,
        );
        rows.push(vec![
            format!("{}-{}", i + 1, i + 2),
            h.aligned_classes.to_string(),
            o.aligned_classes.to_string(),
            gt.len().to_string(),
            h.total_entities(&gt).to_string(),
        ]);
    }
    format!(
        "Figure 13: aligned nodes, consecutive version pairs (GtoPdb)\n{}",
        simple_table(&["Pair", "Hybrid", "Overlap", "GtoPdb", "Total"], &rows)
    )
}

/// Fig 14: precision breakdown for Hybrid and Overlap on consecutive
/// GtoPdb pairs.
pub fn fig14(opts: &ReproOptions) -> String {
    let ds = generate_gtopdb(&GtopdbConfig::default().scaled(opts.scale));
    let cfg = OverlapConfig { theta: opts.theta };
    let mut labels = Vec::new();
    let mut hybrid_counts = Vec::new();
    let mut overlap_counts = Vec::new();
    for i in 0..ds.len() - 1 {
        let c = combined(&ds, i, i + 1);
        let gt = ds.ground_truth(i, i + 1);
        let h = classify_matches(&hybrid_partition(&c).partition, &c, &gt);
        let o = classify_matches(
            &overlap_align(&c, &ds.vocab, cfg).weighted.partition,
            &c,
            &gt,
        );
        labels.push(format!("{}-{}", i + 1, i + 2));
        hybrid_counts.push(breakdown_row(&h));
        overlap_counts.push(breakdown_row(&o));
    }
    let cats = ["exact", "inclusive", "false", "missing"];
    format!(
        "Figure 14: alignment precision (GtoPdb)\n\n{}\n{}",
        stacked_rows("Hybrid", &labels, &cats, &hybrid_counts),
        stacked_rows("Overlap", &labels, &cats, &overlap_counts)
    )
}

fn breakdown_row(b: &MatchBreakdown) -> Vec<usize> {
    vec![b.exact, b.inclusive, b.false_matches, b.missing]
}

/// Fig 15: Overlap precision vs threshold θ on the worst pair (3-4).
pub fn fig15(opts: &ReproOptions) -> String {
    let ds = generate_gtopdb(&GtopdbConfig::default().scaled(opts.scale));
    let c = combined(&ds, 2, 3);
    let gt = ds.ground_truth(2, 3);
    let mut labels = Vec::new();
    let mut counts = Vec::new();
    let mut best = (0usize, 0.0f64);
    for step in 0..7 {
        let theta = 0.35 + 0.1 * step as f64;
        let cfg = OverlapConfig { theta };
        let b = classify_matches(
            &overlap_align(&c, &ds.vocab, cfg).weighted.partition,
            &c,
            &gt,
        );
        if b.exact > best.0 {
            best = (b.exact, theta);
        }
        labels.push(format!("θ={theta:.2}"));
        counts.push(breakdown_row(&b));
    }
    let cats = ["exact", "inclusive", "false", "missing"];
    format!(
        "Figure 15: Overlap precision vs threshold, versions 3-4 (GtoPdb)\n\n{}\nmax exact matches at θ={:.2}\n",
        stacked_rows("Overlap", &labels, &cats, &counts),
        best.1
    )
}

/// Fig 16: execution times on the growing DBpedia-like dataset.
pub fn fig16(opts: &ReproOptions) -> String {
    let ds = generate_dbpedia(&DbpediaConfig::default().scaled(opts.scale));
    let cfg = OverlapConfig { theta: opts.theta };
    let mut rows = Vec::new();
    for i in 0..ds.len() {
        let j = if i == 0 { 0 } else { i - 1 };
        let c = combined(&ds, j, i);
        let s = ds.versions[i].stats();
        let t0 = Instant::now();
        let t = trivial_partition(&c);
        let t_trivial = t0.elapsed();
        drop(t);
        let t0 = Instant::now();
        let h = hybrid_partition(&c);
        let t_hybrid = t0.elapsed();
        drop(h);
        let t0 = Instant::now();
        let o = overlap_align(&c, &ds.vocab, cfg);
        let t_overlap = t0.elapsed();
        drop(o);
        rows.push(vec![
            (i + 1).to_string(),
            s.edges.to_string(),
            s.uris.to_string(),
            s.literals.to_string(),
            format!("{:.3}", t_trivial.as_secs_f64()),
            format!("{:.3}", t_hybrid.as_secs_f64()),
            format!("{:.3}", t_overlap.as_secs_f64()),
        ]);
    }
    format!(
        "Figure 16: evaluation time on the DBpedia-like subset\n(aligning each version with its predecessor)\n{}",
        simple_table(
            &[
                "Version", "Triples", "URIs", "Literals", "Trivial(s)",
                "Hybrid(s)", "Overlap(s)",
            ],
            &rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReproOptions {
        ReproOptions {
            scale: 0.15,
            theta: 0.65,
        }
    }

    #[test]
    fn fig9_renders() {
        let s = fig9(&tiny());
        assert!(s.contains("Version"));
        assert!(s.lines().count() > 10);
    }

    #[test]
    fn fig12_renders() {
        let s = fig12(&tiny());
        assert!(s.contains("GtoPdb"));
    }

    #[test]
    fn fig13_shape() {
        let s = fig13(&tiny());
        assert!(s.contains("Hybrid"));
        assert!(s.contains("Total"));
        // 9 consecutive pairs.
        assert!(s.contains("9-10"));
    }

    #[test]
    fn fig16_reports_times() {
        let s = fig16(&ReproOptions {
            scale: 0.1,
            theta: 0.65,
        });
        assert!(s.contains("Overlap(s)"));
    }
}
