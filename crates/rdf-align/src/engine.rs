//! The deterministic partition-refinement engine.
//!
//! Every alignment method of §3 bottoms out in iterated
//! `BisimRefine*_X(λ)` rounds, and within one round the recoloring
//! `recolor_λ(n)` of equation 1 depends only on the *previous*
//! partition. The engine therefore runs one round as a walk over the
//! node range in fixed blocks of [`BLOCK`] consecutive ids. For each
//! block:
//!
//! 1. **Signature phase** — workers fill the block's key slots in
//!    parallel: [`rdf_par::scoped_map`] over [`rdf_par::chunk_ranges`],
//!    each worker owning a disjoint `&mut` sub-slice of the slots and a
//!    private pair buffer. With one worker the phase runs inline on the
//!    calling thread.
//! 2. **Canonicalisation phase** — the calling thread interns the
//!    block's keys in node order; a new key gets the next dense id. A
//!    node outside `X` keeps its previous color, so its key is interned
//!    through a dense table indexed by that color; only the 128-bit
//!    signatures of recolored nodes go through the hash map. Both draw
//!    ids from one counter.
//!
//! Colors are numbered by first occurrence in node order whatever the
//! thread count, so the output partition is **bit-identical** for every
//! thread count — `--threads 1` and `--threads 8` give the same dense
//! color vector. Blocking bounds the key column to one block instead of
//! one slot per node.
//!
//! The interning map and table, the key column and the pair buffers
//! live in the engine and are reused round to round *and* run to run.

use crate::partition::{ColorId, DenseIds, Partition};
use crate::refine::{label_partition, label_partition_from, RefineOutcome};
use rdf_model::hash::mix64;
use rdf_model::{FxHashMap, LabelId, NodeId, OutColumns, TripleGraph};
use rdf_obs::Recorder;
use rdf_par::{chunk_ranges, scoped_map, Threads};
use std::collections::hash_map::Entry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nodes per block of a refinement round: the signature phase fills
/// this many key slots before the canonicalisation phase interns them.
pub const BLOCK: usize = 65_536;

/// Multiplier for the primary signature stream.
const K1: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Multiplier for the secondary (independent) signature stream.
const K2: u64 = 0x9e37_79b9_7f4a_7c15;

/// Interning key for one refinement round.
#[derive(Debug, Clone, Copy)]
enum RoundKey {
    /// Node kept its previous color (n ∉ X).
    Kept(u32),
    /// Node was recolored; identified by the 128-bit signature of
    /// `(previous color, sorted outbound color pairs)`.
    Recolored(u64, u64),
}

/// The 128-bit signature of `recolor_λ(n)` (equation 1): the previous
/// color mixed with the sorted, distinct outbound color pairs.
#[inline]
fn recolor_signature(prev: u32, pairs: &[(u32, u32)]) -> (u64, u64) {
    let c = prev as u64;
    let mut h1 = mix64(c ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut h2 = mix64(c ^ 0x0123_4567_89AB_CDEF);
    for &(cp, co) in pairs {
        let x = ((cp as u64) << 32) | co as u64;
        h1 = (h1.rotate_left(5) ^ x).wrapping_mul(K1);
        h2 = (h2.rotate_left(9) ^ x).wrapping_mul(K2);
    }
    (h1, h2)
}

/// Reusable, deterministic, multi-threaded refinement engine.
///
/// Construct once (per pipeline, CLI invocation, or benchmark) and feed
/// it every fixpoint run. Output partitions are bit-identical for every
/// thread count (see the module docs for why).
///
/// ```
/// use rdf_align::{RefineEngine, Threads};
/// use rdf_model::{RdfGraphBuilder, Vocab};
///
/// let mut vocab = Vocab::new();
/// let g = {
///     let mut b = RdfGraphBuilder::new(&mut vocab);
///     b.uub("w", "p", "b1");   // w  -p-> _:b1
///     b.bul("b1", "q", "a");   // b1 -q-> "a"
///     b.bul("b2", "q", "a");   // b2 -q-> "a"   (bisimilar to b1)
///     b.finish()
/// };
/// let mut engine = RefineEngine::new(Threads::Fixed(2));
/// let out = engine.bisimulation(g.graph());
/// let blanks = g.graph().blanks();
/// assert!(out.partition.same_class(blanks[0], blanks[1]));
/// // Determinism: any thread count produces the identical coloring.
/// let again = RefineEngine::new(Threads::Fixed(1)).bisimulation(g.graph());
/// assert_eq!(out.partition.colors(), again.partition.colors());
/// ```
#[derive(Debug)]
pub struct RefineEngine {
    threads: usize,
    /// Instrumentation sink; [`Recorder::disabled`] by default, in
    /// which case every emission site reduces to one branch.
    recorder: Arc<Recorder>,
    /// Interning map of recolored nodes' signatures, reused round to
    /// round and run to run.
    map: FxHashMap<(u64, u64), u32>,
    /// Interning table of kept colors, sharing the map's id counter.
    kept: DenseIds,
    /// One block's key slots.
    keys: Vec<RoundKey>,
    /// One pair buffer per worker for equation 1's sorted pair set.
    bufs: Vec<Vec<(u32, u32)>>,
}

impl RefineEngine {
    /// An engine running on the given thread configuration.
    pub fn new(threads: Threads) -> Self {
        RefineEngine {
            threads: threads.resolve(),
            recorder: Arc::new(Recorder::disabled()),
            map: FxHashMap::default(),
            kept: DenseIds::default(),
            keys: Vec::new(),
            bufs: Vec::new(),
        }
    }

    /// An engine on the default (auto) thread configuration.
    pub fn auto() -> Self {
        RefineEngine::new(Threads::Auto)
    }

    /// An engine with an instrumentation recorder attached. Tracing
    /// never changes results: the emitted partition is bit-identical
    /// with any recorder (the inertness suite proves it).
    pub fn with_recorder(threads: Threads, recorder: Arc<Recorder>) -> Self {
        let mut engine = RefineEngine::new(threads);
        engine.recorder = recorder;
        engine
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `BisimRefine*_X(λ)` to fixpoint (Definition 4) over a
    /// grouped-CSR column view, with a membership mask for `X`.
    ///
    /// Terminates after at most `|N_G|` changing rounds: `recolor`
    /// embeds the previous color, so classes only split and every
    /// changing round strictly increases the class count. The outcome
    /// counts every executed round, including the final one that
    /// certified the fixpoint (≥ 1; an empty graph certifies its
    /// fixpoint instantly).
    pub fn refine_fixpoint_columns(
        &mut self,
        cols: &OutColumns<'_>,
        initial: Partition,
        in_x: &[bool],
    ) -> RefineOutcome {
        let n = initial.len();
        assert_eq!(in_x.len(), n, "in_x length != partition length");
        assert_eq!(
            cols.offsets().len(),
            n + 1,
            "column view/partition mismatch"
        );
        if n == 0 {
            return RefineOutcome {
                partition: initial,
                rounds: 1,
            };
        }
        let rec = Arc::clone(&self.recorder);
        let mut fix = rec.span("refine.fixpoint");
        let x_len = in_x.iter().filter(|&&b| b).count();
        let mut partition = initial;
        let mut rounds = 0;
        loop {
            let prev_num = partition.num_colors();
            partition = self.round(cols, in_x, x_len, &partition, &rec, rounds + 1);
            rounds += 1;
            if partition.num_colors() == prev_num {
                break;
            }
        }
        if fix.enabled() {
            fix.field("rounds", rounds);
            fix.field("classes", partition.num_colors());
            fix.field("nodes", n);
            fix.field("threads", self.threads.min(n));
        }
        RefineOutcome { partition, rounds }
    }

    /// [`RefineEngine::refine_fixpoint_columns`] over a graph's own
    /// columns.
    pub fn refine_fixpoint_mask(
        &mut self,
        g: &TripleGraph,
        initial: Partition,
        in_x: &[bool],
    ) -> RefineOutcome {
        self.refine_fixpoint_columns(&g.out_columns(), initial, in_x)
    }

    /// `λ_Bisim = BisimRefine*_{N_G}(ℓ_G)` — the maximal bisimulation
    /// partition (Proposition 1), through this engine.
    pub fn bisimulation(&mut self, g: &TripleGraph) -> RefineOutcome {
        let all = vec![true; g.node_count()];
        self.refine_fixpoint_mask(g, label_partition(g), &all)
    }

    /// [`RefineEngine::bisimulation`] from bare columns: a per-node
    /// label array plus a grouped-CSR view. The entry point for sources
    /// that never materialise a [`TripleGraph`] — zero-copy store views
    /// feed their borrowed columns here. Produces the same partition,
    /// class count and round count as [`RefineEngine::bisimulation`] on
    /// the equivalent graph.
    pub fn bisimulation_columns(
        &mut self,
        labels: &[LabelId],
        cols: &OutColumns<'_>,
    ) -> RefineOutcome {
        let all = vec![true; labels.len()];
        self.refine_fixpoint_columns(cols, label_partition_from(labels), &all)
    }

    /// One refinement step `BisimRefine_X(λ)` (equation 2), block by
    /// block: parallel signatures, then a sequential first-occurrence
    /// intern on the calling thread. `x_len` is `|X|`, the number of
    /// signatures the map can receive.
    fn round(
        &mut self,
        cols: &OutColumns<'_>,
        in_x: &[bool],
        x_len: usize,
        prev: &Partition,
        rec: &Recorder,
        round: usize,
    ) -> Partition {
        let mut sp = rec.span("refine.round");
        let n = prev.len();
        let sig = Signatures {
            offsets: cols.offsets(),
            preds: cols.preds(),
            objs: cols.objs(),
            in_x,
            colors: prev.colors(),
        };
        let block = BLOCK.min(n);
        self.keys.resize(block, RoundKey::Kept(0));
        self.bufs.resize_with(self.threads.min(block), Vec::new);
        self.map.clear();
        self.map.reserve(x_len);
        let kept = &mut self.kept;
        kept.reset(prev.num_colors() as usize);
        let mut colors = Vec::with_capacity(n);
        let (mut sig_time, mut canon_time) = (Duration::ZERO, Duration::ZERO);
        for start in (0..n).step_by(block) {
            let keys = &mut self.keys[..block.min(n - start)];
            let sig_start = Instant::now();
            sig.fill(keys, start, &mut self.bufs);
            let canon_start = Instant::now();
            sig_time += canon_start - sig_start;
            for &key in keys.iter() {
                let id = match key {
                    RoundKey::Kept(c) => kept.id(c),
                    RoundKey::Recolored(h1, h2) => match self.map.entry((h1, h2)) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(e) => *e.insert(kept.fresh()),
                    },
                };
                colors.push(ColorId(id));
            }
            canon_time += canon_start.elapsed();
        }
        let new_num = kept.count();
        if sp.enabled() {
            sp.field("round", round);
            sp.field("classes", new_num);
            sp.field("splits", new_num.saturating_sub(prev.num_colors()));
            sp.field("sig_us", sig_time.as_micros() as u64);
            sp.field("canon_us", canon_time.as_micros() as u64);
        }
        Partition::from_dense(colors, new_num)
    }
}

impl Default for RefineEngine {
    fn default() -> Self {
        RefineEngine::auto()
    }
}

/// The equation-1 signature function of one round over a grouped-CSR
/// view, with the round's inputs hoisted into plain slices.
struct Signatures<'a> {
    offsets: &'a [u32],
    preds: &'a [NodeId],
    objs: &'a [NodeId],
    in_x: &'a [bool],
    colors: &'a [ColorId],
}

impl Signatures<'_> {
    /// Node `i`'s key: its previous color when `i ∉ X`, else the hash of
    /// its previous color and its sorted, distinct outbound color pairs.
    #[inline]
    fn key(&self, i: usize, buf: &mut Vec<(u32, u32)>) -> RoundKey {
        let prev = self.colors[i].0;
        if !self.in_x[i] {
            return RoundKey::Kept(prev);
        }
        buf.clear();
        let edges = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        for (p, o) in self.preds[edges.clone()].iter().zip(&self.objs[edges]) {
            buf.push((self.colors[p.index()].0, self.colors[o.index()].0));
        }
        // Equation (1) uses a *set* of color pairs: sort + dedup gives
        // the canonical sequence to hash.
        buf.sort_unstable();
        buf.dedup();
        let (h1, h2) = recolor_signature(prev, buf);
        RoundKey::Recolored(h1, h2)
    }

    /// Fill `keys` with the keys of nodes `first..first + keys.len()`,
    /// split across at most `bufs.len()` workers.
    fn fill(&self, keys: &mut [RoundKey], first: usize, bufs: &mut [Vec<(u32, u32)>]) {
        let ranges = chunk_ranges(keys.len(), bufs.len());
        let mut tasks = Vec::with_capacity(ranges.len());
        let mut rest = keys;
        for (range, buf) in ranges.into_iter().zip(bufs) {
            let (slots, tail) = rest.split_at_mut(range.len());
            rest = tail;
            tasks.push((first + range.start, slots, buf));
        }
        scoped_map(tasks, |_, (base, slots, buf)| {
            for (i, slot) in (base..).zip(slots.iter_mut()) {
                *slot = self.key(i, buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{GraphBuilder, LabelId, Vocab};

    /// A small chain/diamond graph with blanks, literals and URIs.
    fn sample() -> TripleGraph {
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let w = b.add_node(v.uri("w"), &v);
        let u = b.add_node(v.uri("u"), &v);
        let p = b.add_node(v.uri("p"), &v);
        let q = b.add_node(v.uri("q"), &v);
        let lit = b.add_node(v.literal("a"), &v);
        let b1 = b.add_node(LabelId::BLANK, &v);
        let b2 = b.add_node(LabelId::BLANK, &v);
        let b3 = b.add_node(LabelId::BLANK, &v);
        b.add_triple(w, p, b1);
        b.add_triple(u, p, b2);
        b.add_triple(b1, q, lit);
        b.add_triple(b2, q, lit);
        b.add_triple(b3, q, b1);
        b.freeze()
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let g = sample();
        let base = RefineEngine::new(Threads::Fixed(1)).bisimulation(&g);
        for t in [2usize, 3, 4, 8] {
            let out = RefineEngine::new(Threads::Fixed(t)).bisimulation(&g);
            assert_eq!(
                out.partition.colors(),
                base.partition.colors(),
                "threads={t} diverged"
            );
            assert_eq!(out.rounds, base.rounds);
        }
    }

    #[test]
    fn engine_reuse_is_deterministic() {
        let g = sample();
        let mut engine = RefineEngine::new(Threads::Fixed(4));
        let a = engine.bisimulation(&g);
        let b = engine.bisimulation(&g);
        assert_eq!(a.partition.colors(), b.partition.colors());
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().freeze();
        for t in [1usize, 4] {
            let out = RefineEngine::new(Threads::Fixed(t)).bisimulation(&g);
            assert_eq!(out.partition.len(), 0);
            assert_eq!(out.partition.num_colors(), 0);
        }
    }

    #[test]
    fn partial_mask_matches_across_threads() {
        let g = sample();
        let in_x: Vec<bool> = g.nodes().map(|n| g.is_blank(n)).collect();
        let seq = RefineEngine::new(Threads::Fixed(1)).refine_fixpoint_mask(
            &g,
            label_partition(&g),
            &in_x,
        );
        let par = RefineEngine::new(Threads::Fixed(4)).refine_fixpoint_mask(
            &g,
            label_partition(&g),
            &in_x,
        );
        assert_eq!(seq.partition.colors(), par.partition.colors());
        assert_eq!(seq.rounds, par.rounds);
    }
}
