//! The overlap heuristic — Algorithm 1 of §4.6.
//!
//! Candidate close pairs between two node sets are found by representing
//! each node `n` as a set of objects `char(n)` and using
//! `overlap(O1, O2) = |O1 ∩ O2| / |O1 ∪ O2|`. An inverted index over the
//! target side plus least-frequent-first prefix probing restricts the
//! candidate generation to a fraction of the objects; every candidate is
//! then confirmed with the distance function `σ`.
//!
//! **Prefix bound.** A node with `k` objects probes its
//! `k − ⌈θ·k⌉ + 1` least frequent ones. Overlap
//! `≥ θ` means at least `⌈θ·k⌉` of the `k` objects are shared, so at
//! most `k − ⌈θ·k⌉` are not, and any `k − ⌈θ·k⌉ + 1` probes hit a
//! shared one: no pair with `overlap ≥ θ` is lost. The paper's listing
//! prints `⌈k·θ⌉` probes instead, which is not used because it can miss
//! pairs: at `k = 10, θ = 0.5`, a node holding only `n`'s 5 most
//! frequent objects has overlap 0.5, yet the 5 rarest probes never
//! reach it.

use crate::enrich::WeightedBipartite;
use rdf_model::{FxHashMap, NodeId};

/// Number of least-frequent objects Algorithm 1 probes for a node with
/// `k` characterising objects: `k − ⌈θ·k⌉ + 1`, clamped to `1..=k`
/// (0 when `k = 0`).
fn prefix_probes(k: usize, theta: f64) -> usize {
    if k == 0 {
        return 0;
    }
    let kept = (theta * k as f64).ceil() as usize;
    (k + 1).saturating_sub(kept).clamp(1, k)
}

/// Jaccard overlap of two sorted, deduplicated object slices.
pub fn overlap_sorted(o1: &[u64], o2: &[u64]) -> f64 {
    if o1.is_empty() && o2.is_empty() {
        return 1.0; // overlap(∅, ∅) = 1 by convention (§4.6)
    }
    let mut i = 0;
    let mut j = 0;
    let mut common = 0usize;
    while i < o1.len() && j < o2.len() {
        match o1[i].cmp(&o2[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = o1.len() + o2.len() - common;
    common as f64 / union as f64
}

/// `diff(O1, O2) = 1 − overlap(O1, O2)` (§4.6).
pub fn diff_sorted(o1: &[u64], o2: &[u64]) -> f64 {
    1.0 - overlap_sorted(o1, o2)
}

/// Outcome statistics of one `OverlapMatch` invocation, for diagnostics
/// and the trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapMatchStats {
    /// Candidate pairs generated by the index probes.
    pub candidates: usize,
    /// Candidates passing the overlap filter.
    pub overlap_passed: usize,
    /// Pairs confirmed by σ (< θ) — the edges of the result.
    pub confirmed: usize,
}

/// Algorithm 1: `OverlapMatch(A, B, θ, char, σ)`.
///
/// `char_a[i]` / `char_b[j]` are the sorted, deduplicated object sets of
/// `a[i]` / `b[j]`. `sigma` is the confirming distance; an edge `(a, b,
/// σ(a,b))` is produced when `overlap ≥ θ` and `σ < θ`.
pub fn overlap_match(
    a: &[NodeId],
    char_a: &[Vec<u64>],
    b: &[NodeId],
    char_b: &[Vec<u64>],
    theta: f64,
    mut sigma: impl FnMut(NodeId, NodeId) -> f64,
) -> (WeightedBipartite, OverlapMatchStats) {
    assert_eq!(a.len(), char_a.len());
    assert_eq!(b.len(), char_b.len());
    let mut stats = OverlapMatchStats::default();

    // Inverted index over B's objects (lines 1–6).
    let mut inv: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    for (j, objs) in char_b.iter().enumerate() {
        for &o in objs {
            inv.entry(o).or_default().push(j as u32);
        }
    }

    let mut edges = Vec::new();
    // Candidate de-duplication stamps (avoids clearing a set per node).
    let mut stamp = vec![u32::MAX; b.len()];
    let mut sorted_objs: Vec<u64> = Vec::new();
    for (i, &n) in a.iter().enumerate() {
        let objs = &char_a[i];
        if objs.is_empty() {
            continue;
        }
        // Line 11: least frequent first (freq = index posting length;
        // objects absent from B have frequency 0 and are probed first,
        // harmlessly).
        sorted_objs.clear();
        sorted_objs.extend_from_slice(objs);
        sorted_objs.sort_unstable_by_key(|o| {
            (inv.get(o).map_or(0, Vec::len), *o)
        });
        let probes = prefix_probes(objs.len(), theta);
        let mut candidates: Vec<u32> = Vec::new();
        for &o in sorted_objs.iter().take(probes) {
            if let Some(postings) = inv.get(&o) {
                for &j in postings {
                    if stamp[j as usize] != i as u32 {
                        stamp[j as usize] = i as u32;
                        candidates.push(j);
                    }
                }
            }
        }
        stats.candidates += candidates.len();
        // Lines 13–19: overlap filter then σ confirmation.
        for j in candidates {
            let m_objs = &char_b[j as usize];
            if overlap_sorted(objs, m_objs) >= theta {
                stats.overlap_passed += 1;
                let m = b[j as usize];
                let d = sigma(n, m);
                if d < theta {
                    stats.confirmed += 1;
                    edges.push((n, m, d));
                }
            }
        }
    }
    (WeightedBipartite { edges }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn overlap_values() {
        assert_eq!(overlap_sorted(&[], &[]), 1.0);
        assert_eq!(overlap_sorted(&[1], &[]), 0.0);
        assert_eq!(overlap_sorted(&[1, 2], &[1, 2]), 1.0);
        assert!((overlap_sorted(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert!((diff_sorted(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefix_bounds() {
        // k − ⌈θk⌉ + 1.
        assert_eq!(prefix_probes(10, 0.5), 6);
        assert_eq!(prefix_probes(10, 0.9), 2);
        assert_eq!(prefix_probes(3, 0.65), 2);
        assert_eq!(prefix_probes(0, 0.5), 0);
    }

    #[test]
    fn exact_duplicates_found() {
        let a = ids(&[0, 1]);
        let b = ids(&[10, 11]);
        let char_a = vec![vec![1u64, 2, 3], vec![7, 8]];
        let char_b = vec![vec![1u64, 2, 3], vec![9, 10]];
        let (h, stats) = overlap_match(
            &a,
            &char_a,
            &b,
            &char_b,
            0.6,
            |_, _| 0.0,
        );
        assert_eq!(h.len(), 1);
        assert_eq!(h.edges[0].0, NodeId(0));
        assert_eq!(h.edges[0].1, NodeId(10));
        assert!(stats.candidates >= 1);
    }

    #[test]
    fn sigma_filters_candidates() {
        let a = ids(&[0]);
        let b = ids(&[10]);
        let char_a = vec![vec![1u64, 2]];
        let char_b = vec![vec![1u64, 2]];
        // overlap = 1 ≥ θ, but σ = 0.9 ≥ θ: rejected.
        let (h, stats) = overlap_match(
            &a,
            &char_a,
            &b,
            &char_b,
            0.6,
            |_, _| 0.9,
        );
        assert!(h.is_empty());
        assert_eq!(stats.overlap_passed, 1);
        assert_eq!(stats.confirmed, 0);
    }

    #[test]
    fn safe_prefix_is_complete() {
        // Every pair with overlap ≥ θ must be found by the prefix
        // bound, regardless of frequency ordering.
        let theta = 0.6;
        let universe: Vec<Vec<u64>> = vec![
            vec![1, 2, 3, 4, 5],
            vec![1, 2, 3, 4],
            vec![2, 3, 4, 5],
            vec![1, 5, 6],
            vec![6, 7],
            vec![1, 2, 3, 4, 5, 6],
        ];
        let a = ids(&[0, 1, 2]);
        let char_a: Vec<Vec<u64>> = universe[0..3].to_vec();
        let b = ids(&[10, 11, 12]);
        let char_b: Vec<Vec<u64>> = universe[3..6].to_vec();
        let (h, _) = overlap_match(
            &a,
            &char_a,
            &b,
            &char_b,
            theta,
            |_, _| 0.0,
        );
        // Brute-force reference.
        let mut expected = 0;
        for ca in &char_a {
            for cb in &char_b {
                if overlap_sorted(ca, cb) >= theta {
                    expected += 1;
                }
            }
        }
        assert_eq!(h.len(), expected);
    }

    #[test]
    fn empty_characterisations_skipped() {
        let a = ids(&[0]);
        let b = ids(&[10]);
        let (h, _) = overlap_match(
            &a,
            &[vec![]],
            &b,
            &[vec![]],
            0.5,
            |_, _| 0.0,
        );
        assert!(h.is_empty());
    }
}
