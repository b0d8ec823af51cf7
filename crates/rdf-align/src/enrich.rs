//! Enrichment of a weighted partition with newly discovered close pairs
//! (§4.4).
//!
//! Discovered pairs arrive as a weighted bipartite graph
//! `H = (A, B, M, d)` between unaligned source nodes `A` and unaligned
//! target nodes `B`. `H` is decomposed into connected components
//! `X₁ … X_k`; each component becomes a new cluster. Members receive a
//! weight consistent with the shortest-path distance `d*` in `H`
//! (computed with `⊕`): every source node takes half the maximum `d*` to
//! any target node of its component, and vice versa, which guarantees
//! `d*(a, b) ≤ w(a) ⊕ w(b)`.

use crate::partition::Partition;
use crate::weighted::WeightedPartition;
use rdf_model::{FxHashMap, NodeId};
use rdf_edit::algebra::oplus;

/// A weighted bipartite graph of newly discovered close pairs
/// (the output shape of Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct WeightedBipartite {
    /// Edges `(a ∈ A, b ∈ B, d(a, b))`; isolated nodes are not
    /// represented (the paper removes them from consideration).
    pub edges: Vec<(NodeId, NodeId, f64)>,
}

impl WeightedBipartite {
    /// Whether the graph has no edges (the Algorithm 2 stop condition).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }
}

/// Union-find over arbitrary node ids.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// The weight assignment computed for the members of `H`.
#[derive(Debug, Clone)]
pub struct EnrichedWeights {
    /// Per-node (component-member) weights.
    pub weights: FxHashMap<NodeId, f64>,
    /// Component id per member node.
    pub component: FxHashMap<NodeId, u32>,
    /// Number of components.
    pub num_components: u32,
}

/// Decompose `H` into connected components and assign weights.
pub fn component_weights(h: &WeightedBipartite) -> EnrichedWeights {
    // Compact the member node ids.
    let mut index: FxHashMap<NodeId, u32> = FxHashMap::default();
    let mut members: Vec<NodeId> = Vec::new();
    let mut is_source: Vec<bool> = Vec::new();
    for &(a, b, _) in &h.edges {
        index.entry(a).or_insert_with(|| {
            members.push(a);
            is_source.push(true);
            members.len() as u32 - 1
        });
        index.entry(b).or_insert_with(|| {
            members.push(b);
            is_source.push(false);
            members.len() as u32 - 1
        });
    }
    let n = members.len();
    let mut uf = UnionFind::new(n);
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for &(a, b, d) in &h.edges {
        let (ia, ib) = (index[&a], index[&b]);
        uf.union(ia, ib);
        adj[ia as usize].push((ib, d));
        adj[ib as usize].push((ia, d));
    }

    // Canonical component ids.
    let mut comp_of: Vec<u32> = vec![0; n];
    let mut comp_map: FxHashMap<u32, u32> = FxHashMap::default();
    for i in 0..n as u32 {
        let root = uf.find(i);
        let next = comp_map.len() as u32;
        comp_of[i as usize] = *comp_map.entry(root).or_insert(next);
    }
    let num_components = comp_map.len() as u32;

    // Per member: Dijkstra with ⊕ (saturating) path lengths to find
    // d*(v, ·), then w(v) = max over opposite-side members / 2.
    // Components are tiny in practice (near one-to-one matchings).
    let mut weights: FxHashMap<NodeId, f64> = FxHashMap::default();
    for start in 0..n {
        let dist = dijkstra_oplus(&adj, start, n);
        let mut max_opposite: f64 = 0.0;
        for other in 0..n {
            if comp_of[other] == comp_of[start]
                && is_source[other] != is_source[start]
            {
                max_opposite = max_opposite.max(dist[other]);
            }
        }
        weights.insert(members[start], max_opposite / 2.0);
    }

    let component: FxHashMap<NodeId, u32> = members
        .iter()
        .enumerate()
        .map(|(i, &m)| (m, comp_of[i]))
        .collect();
    EnrichedWeights {
        weights,
        component,
        num_components,
    }
}

/// Dijkstra with saturating `⊕` path lengths from `start`; unreachable
/// nodes get distance 1 (the paper's convention).
fn dijkstra_oplus(adj: &[Vec<(u32, f64)>], start: usize, n: usize) -> Vec<f64> {
    let mut dist = vec![1.0f64; n];
    dist[start] = 0.0;
    let mut visited = vec![false; n];
    // Small components: the O(n²) scan is simpler and cache-friendly.
    for _ in 0..n {
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for v in 0..n {
            if !visited[v] && dist[v] < best_d {
                best = v;
                best_d = dist[v];
            }
        }
        if best == usize::MAX || best_d >= 1.0 {
            break;
        }
        visited[best] = true;
        for &(to, w) in &adj[best] {
            let nd = oplus(dist[best], w);
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
            }
        }
    }
    dist
}

/// `Enrich(ξ, H)` (§4.4): members of each component of `H` move into a
/// fresh cluster per component with the consistent weights; all other
/// nodes keep their color and weight.
pub fn enrich(
    xi: &WeightedPartition,
    h: &WeightedBipartite,
) -> WeightedPartition {
    if h.is_empty() {
        return xi.clone();
    }
    let ew = component_weights(h);
    let base = xi.partition.num_colors();
    let mut raw: Vec<u32> =
        xi.partition.colors().iter().map(|c| c.0).collect();
    let mut weights = xi.weights();
    for (&node, &comp) in &ew.component {
        raw[node.index()] = base + comp;
        weights[node.index()] = ew.weights[&node];
    }
    // Keys are colors plus component ids above them: dense.
    let partition = Partition::from_dense_keys(raw.iter().copied());
    WeightedPartition::new(partition, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::trivial_partition;
    use rdf_model::{CombinedGraph, RdfGraphBuilder, Vocab};

    fn h(edges: &[(u32, u32, f64)]) -> WeightedBipartite {
        WeightedBipartite {
            edges: edges
                .iter()
                .map(|&(a, b, d)| (NodeId(a), NodeId(b), d))
                .collect(),
        }
    }

    #[test]
    fn single_pair_component() {
        // One close pair at distance 1/3: both endpoints get weight 1/6,
        // so d*(a,b) = 1/3 ≤ 1/6 ⊕ 1/6. ✓
        let ew = component_weights(&h(&[(0, 10, 1.0 / 3.0)]));
        assert_eq!(ew.num_components, 1);
        assert!((ew.weights[&NodeId(0)] - 1.0 / 6.0).abs() < 1e-12);
        assert!((ew.weights[&NodeId(10)] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn star_component_uses_max() {
        // a matched to two targets at distances 0.2 and 0.4:
        // w(a) = 0.4 / 2 = 0.2; w(b1) = d*(b1→a? no—max to SOURCE) …
        let ew = component_weights(&h(&[(0, 10, 0.2), (0, 11, 0.4)]));
        assert_eq!(ew.num_components, 1);
        assert!((ew.weights[&NodeId(0)] - 0.2).abs() < 1e-12);
        // b=10: max d* to any source in component = d(10,0) = 0.2.
        assert!((ew.weights[&NodeId(10)] - 0.1).abs() < 1e-12);
        assert!((ew.weights[&NodeId(11)] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn consistency_invariant() {
        // For every edge (a,b): d(a,b) ≤ w(a) ⊕ w(b) — required by §4.4.
        let graph = h(&[
            (0, 10, 0.1),
            (1, 10, 0.3),
            (1, 11, 0.2),
            (2, 12, 0.9),
        ]);
        let ew = component_weights(&graph);
        for &(a, b, d) in &graph.edges {
            let bound = oplus(ew.weights[&a], ew.weights[&b]);
            assert!(
                d <= bound + 1e-12,
                "d({a},{b})={d} > {bound}"
            );
        }
    }

    #[test]
    fn separate_components() {
        let ew = component_weights(&h(&[(0, 10, 0.2), (1, 11, 0.4)]));
        assert_eq!(ew.num_components, 2);
        assert_ne!(ew.component[&NodeId(0)], ew.component[&NodeId(1)]);
    }

    #[test]
    fn enrich_moves_members_to_fresh_clusters() {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "abc");
            b.finish()
        };
        let g2 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "ac");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1, &g2);
        let xi = WeightedPartition::zero(trivial_partition(&c));
        // "abc" is source node 2; "ac" is target node 2 → combined 5.
        let abc = NodeId(2);
        let ac = c.from_target(NodeId(2));
        assert!(!xi.partition.same_class(abc, ac));
        let out = enrich(
            &xi,
            &WeightedBipartite {
                edges: vec![(abc, ac, 1.0 / 3.0)],
            },
        );
        assert!(out.partition.same_class(abc, ac));
        assert!((out.distance(abc, ac) - 1.0 / 3.0).abs() < 1e-12);
        // Other nodes unchanged.
        assert!(out.partition.same_class(NodeId(0), c.from_target(NodeId(0))));
        assert_eq!(out.weight(NodeId(0)), 0.0);
    }

    #[test]
    fn enrich_empty_is_identity() {
        let mut v = Vocab::new();
        let g1 = {
            let mut b = RdfGraphBuilder::new(&mut v);
            b.uul("x", "p", "a");
            b.finish()
        };
        let c = CombinedGraph::union(&v, &g1.clone(), &g1);
        let xi = WeightedPartition::zero(trivial_partition(&c));
        let out = enrich(&xi, &WeightedBipartite::default());
        assert!(out.partition.equivalent(&xi.partition));
    }
}
