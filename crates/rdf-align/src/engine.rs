//! The deterministic partition-refinement engine.
//!
//! Every alignment method of §3 bottoms out in iterated
//! `BisimRefine*_X(λ)` rounds. Within one round the recoloring
//! `recolor_λ(n)` of equation 1 depends only on the *previous*
//! partition, and by equation 2 a node outside `X` keeps its color. So
//! a fixpoint only ever works on `X`, one class at a time:
//!
//! 1. **`X` indexed by class.** When a fixpoint starts, the `X` nodes
//!    are counting-sorted by initial color into one member array, and
//!    each class of `X` is a range of it. No round visits a node
//!    outside `X`.
//! 2. **A dirty-class worklist.** A class of one node has one pair
//!    set, so no round can split it, and no round signs it. All members
//!    of a class share one pair set over the previous colors. So a
//!    class can split in round `r > 1` only if a member has a
//!    successor, in predicate or object position, in a class that split
//!    in round `r - 1`, and then every member has one: testing one
//!    member per class is exact. Round 1 takes every class of `X` with
//!    two or more members. Each later round tests the first member of
//!    every such class and takes the dirty ones. A round with none does
//!    no work.
//! 3. **Signatures, then splits.** The members of the dirty classes
//!    are signed in batches of about [`BLOCK`] nodes. Workers fill
//!    disjoint chunks of a batch's slots in parallel
//!    ([`rdf_par::scoped_map`] over [`rdf_par::chunk_ranges`], inline
//!    at one worker) with a 128-bit hash of each member's sorted,
//!    distinct outbound color pairs. The calling thread then groups
//!    each class's slots by signature in an open-addressing table. The
//!    first group keeps the class's id and every other group takes a
//!    fresh one. Fragment colors are written when the round ends, so
//!    every signature of a round reads the previous round's colors.
//! 4. **Stable ids, one renumber.** Inside a fixpoint a class keeps its
//!    id. Round 1 moves every class of `X` to an id above the initial
//!    colors, which also parts its members from nodes outside `X` that
//!    shared their initial color. The fixpoint ends with one
//!    first-occurrence renumber in node order. That gives the dense
//!    canonical colors the sequential reference emits, and the same
//!    round count, since the reference's rounds split the same
//!    classes.
//!
//! The output depends only on the classes, never on which worker
//! signed which slot, so it is **bit-identical** for every thread
//! count: `--threads 1` and `--threads 8` give the same dense color
//! vector. A fixpoint costs one pass over the nodes to index `X` and
//! one to renumber; its rounds cost work in proportion to the dirty
//! classes. The engine's scratch is `O(|X|)` plus one table and one
//! bitset over the initial colors, and lives in the engine, reused
//! round to round and run to run.

use crate::partition::{ColorId, Partition};
use crate::refine::{label_partition, label_partition_from, RefineOutcome};
use rdf_model::hash::mix64;
use rdf_model::{LabelId, NodeId, OutColumns, TripleGraph};
use rdf_obs::Recorder;
use rdf_par::{chunk_ranges, scoped_map, Threads};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nodes whose pairs a worker gathers before it sorts and hashes any,
/// so that their color loads overlap.
const GATHER: usize = 32;

/// An empty slot of an id table.
const NONE: u32 = u32::MAX;

/// Members per batch of a refinement round: the signature phase fills
/// slots for whole dirty classes until a batch holds at least this
/// many (or one class, if larger) before the split phase reads them.
pub const BLOCK: usize = 65_536;

/// Multiplier for the primary signature stream.
const K1: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Multiplier for the secondary (independent) signature stream.
const K2: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 128-bit signature of a node's outbound color pairs, each packed
/// as `color(p) << 32 | color(o)` and given sorted: the part of
/// `recolor_λ(n)` (equation 1) in which members of one class can
/// differ. Equation 1 uses a *set* of pairs, so repeats are skipped.
#[inline]
fn pair_signature(sorted: &[u64]) -> (u64, u64) {
    let mut h1 = mix64(0xA5A5_5A5A_DEAD_BEEF);
    let mut h2 = mix64(0x0123_4567_89AB_CDEF);
    for (k, &x) in sorted.iter().enumerate() {
        if k > 0 && sorted[k - 1] == x {
            continue;
        }
        h1 = (h1.rotate_left(5) ^ x).wrapping_mul(K1);
        h2 = (h2.rotate_left(9) ^ x).wrapping_mul(K2);
    }
    (h1, h2)
}

/// One class of `X` inside a fixpoint: a range of the member array,
/// and the last round that split it (0 before any).
#[derive(Debug, Clone, Copy)]
struct Class {
    start: u32,
    end: u32,
    split: u32,
}

impl Class {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One member of a dirty class and its signature.
#[derive(Debug, Clone, Copy)]
struct Slot {
    sig: (u64, u64),
    node: u32,
}

/// What one round did, for its `refine.round` span.
struct RoundStats {
    signed: usize,
    sig_time: Duration,
    canon_time: Duration,
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
    /// One slot per initial color: the census of `X` when a fixpoint
    /// starts, the first-occurrence renumber when it ends.
    table: Vec<u32>,
    /// One bit per initial color: held by a node of `X`.
    x_colors: Vec<u64>,
    /// The nodes of `X`, grouped by class.
    members: Vec<u32>,
    /// The classes of `X`; class `l` has color `base + l`, where `base`
    /// is the initial partition's color count.
    classes: Vec<Class>,
    /// The current round's dirty classes.
    dirty: Vec<u32>,
    /// One batch's slots.
    slots: Vec<Slot>,
    /// Scratch for splitting one class by signature.
    groups: Groups,
    /// One pair buffer per worker for equation 1's sorted pair set.
    bufs: Vec<Vec<u64>>,
}

impl RefineEngine {
    /// An engine running on the given thread configuration.
    pub fn new(threads: Threads) -> Self {
        RefineEngine {
            threads: threads.resolve(),
            recorder: Arc::new(Recorder::disabled()),
            table: Vec::new(),
            x_colors: Vec::new(),
            members: Vec::new(),
            classes: Vec::new(),
            dirty: Vec::new(),
            slots: Vec::new(),
            groups: Groups::default(),
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
        let base = initial.num_colors();
        // Classes of `X` take ids above `base`, and `NONE` is no id.
        assert!(
            base as usize + n < NONE as usize,
            "too many nodes for 32-bit color ids"
        );
        let rec = Arc::clone(&self.recorder);
        let mut fix = rec.span("refine.fixpoint");
        let mut colors = initial.into_colors();
        let (x_len, kept) = self.index_x(&colors, in_x, base);
        // The reference's class count before round 1 is the initial
        // partition's; after a round it is the colors kept outside `X`
        // plus the classes of `X`.
        let mut classes = base as usize;
        let mut rounds = 0;
        loop {
            rounds += 1;
            let mut sp = rec.span("refine.round");
            let stats = self.round(cols, &mut colors, base, rounds);
            let prev = classes;
            classes = kept + self.classes.len();
            if sp.enabled() {
                sp.field("round", rounds);
                sp.field("classes", classes);
                sp.field("splits", classes.saturating_sub(prev));
                sp.field("signed", stats.signed);
                sp.field("sig_us", stats.sig_time.as_micros() as u64);
                sp.field("canon_us", stats.canon_time.as_micros() as u64);
            }
            if classes == prev {
                break;
            }
        }
        let num_colors = self.renumber(&mut colors, base);
        debug_assert_eq!(num_colors as usize, classes);
        if fix.enabled() {
            fix.field("rounds", rounds);
            fix.field("classes", num_colors);
            fix.field("nodes", n);
            fix.field("x", x_len);
            fix.field("threads", self.threads.min(n));
        }
        RefineOutcome {
            partition: Partition::from_dense(colors, num_colors),
            rounds: rounds as usize,
        }
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

    /// Index `X` by class: counting-sort the `X` nodes by initial color
    /// into `members`, one class per color they hold, ascending, and
    /// mark those colors in `x_colors`. A class that shares its color
    /// with nodes outside `X` is split off from them by round 1, so it
    /// starts marked as split in round 1. Returns `|X|` and the number
    /// of colors held outside `X` (a partition's colors are dense, so
    /// every color is held somewhere).
    fn index_x(
        &mut self,
        colors: &[ColorId],
        in_x: &[bool],
        base: u32,
    ) -> (usize, usize) {
        // The `X` nodes in node order, until they are scattered, listed
        // without a branch per node: membership is hard to predict.
        let x_len = in_x.iter().filter(|&&x| x).count();
        let xs = &mut self.dirty;
        xs.clear();
        xs.resize(x_len + 1, 0);
        let mut k = 0;
        for (i, &x) in in_x.iter().enumerate() {
            xs[k] = i as u32;
            k += usize::from(x);
        }
        xs.truncate(x_len);
        let table = &mut self.table;
        table.clear();
        table.resize(base as usize, 0);
        for &i in xs.iter() {
            table[colors[i as usize].index()] += 1;
        }
        let x_colors = &mut self.x_colors;
        x_colors.clear();
        x_colors.resize((base as usize).div_ceil(64), 0);
        self.classes.clear();
        let mut at = 0;
        for (c, slot) in table.iter_mut().enumerate() {
            let count = *slot;
            if count > 0 {
                x_colors[c / 64] |= 1 << (c % 64);
                self.classes.push(Class {
                    start: at,
                    end: at + count,
                    split: 0,
                });
            }
            // From here on the slot is the class's write cursor.
            *slot = at;
            at += count;
        }
        self.members.clear();
        self.members.resize(x_len, 0);
        for &i in xs.iter() {
            let cursor = &mut table[colors[i as usize].index()];
            self.members[*cursor as usize] = i;
            *cursor += 1;
        }
        // A node outside `X` holding a color of `X` is rare: look for one
        // without a branch, and only then mark the classes shared across
        // the boundary, each found by its end, now its color's cursor.
        let x_bit = |c: ColorId| x_colors[c.index() / 64] >> (c.0 % 64) & 1;
        let shares = |(&c, &x): (&ColorId, &bool)| x_bit(c) & u64::from(!x);
        let nodes = || colors.iter().zip(in_x);
        let mut shared = 0;
        if nodes().map(shares).fold(0, |any, s| any | s) == 1 {
            for (&c, _) in nodes().filter(|&node| shares(node) == 1) {
                let end = table[c.index()];
                let l = self.classes.partition_point(|k| k.end < end);
                shared += usize::from(self.classes[l].split == 0);
                self.classes[l].split = 1;
            }
        }
        (x_len, base as usize - self.classes.len() + shared)
    }

    /// One refinement step `BisimRefine_X(λ)` (equation 2) over the
    /// classes of `X` that can split: pick the dirty classes of two or
    /// more members, sign their members batch by batch, split each
    /// class by signature, then write the colors of the round's new
    /// classes (of every class of `X` in round 1).
    fn round(
        &mut self,
        cols: &OutColumns<'_>,
        colors: &mut [ColorId],
        base: u32,
        round: u32,
    ) -> RoundStats {
        let sig = Signatures {
            offsets: cols.offsets(),
            preds: cols.preds(),
            objs: cols.objs(),
            colors,
            x_colors: &self.x_colors,
        };
        let mut stats = RoundStats {
            signed: 0,
            sig_time: Duration::ZERO,
            canon_time: Duration::ZERO,
        };
        let pick_start = Instant::now();
        self.dirty.clear();
        let last = round - 1;
        let classes = &self.classes;
        let split_last = |s: NodeId| {
            let c = sig.colors[s.index()].0;
            match c.checked_sub(base) {
                Some(l) => classes[l as usize].split == last,
                // Outside `X`, only a color shared with `X` split, and
                // only in round 1.
                None => last == 1 && sig.x_color(c),
            }
        };
        for (l, class) in classes.iter().enumerate() {
            // A class of one node has one pair set: it never splits.
            if class.end - class.start < 2 {
                continue;
            }
            let head = self.members[class.start as usize] as usize;
            if round == 1 || sig.successors(head).any(split_last) {
                self.dirty.push(l as u32);
            }
        }
        stats.sig_time += pick_start.elapsed();
        self.bufs.resize_with(self.threads, Vec::new);
        let first_new = self.classes.len();
        let mut next = 0;
        while next < self.dirty.len() {
            let sig_start = Instant::now();
            let batch_start = next;
            self.slots.clear();
            while next < self.dirty.len() && self.slots.len() < BLOCK {
                let class = self.classes[self.dirty[next] as usize];
                self.slots.extend(
                    self.members[class.range()]
                        .iter()
                        .map(|&node| Slot { sig: (0, 0), node }),
                );
                next += 1;
            }
            sig.fill(&mut self.slots, &mut self.bufs);
            stats.signed += self.slots.len();
            let canon_start = Instant::now();
            stats.sig_time += canon_start - sig_start;
            let mut rest = &mut self.slots[..];
            for &l in &self.dirty[batch_start..next] {
                let len = self.classes[l as usize].range().len();
                let (slots, tail) = rest.split_at_mut(len);
                rest = tail;
                split_class(
                    &mut self.classes,
                    &mut self.members,
                    &mut self.groups,
                    l as usize,
                    slots,
                    round,
                );
            }
            stats.canon_time += canon_start.elapsed();
        }
        let write_start = Instant::now();
        let from = if round == 1 { 0 } else { first_new };
        for (l, class) in self.classes.iter().enumerate().skip(from) {
            let color = ColorId(base + l as u32);
            for &node in &self.members[class.range()] {
                colors[node as usize] = color;
            }
        }
        stats.canon_time += write_start.elapsed();
        stats
    }

    /// Renumber the colors in place by first occurrence in node order;
    /// returns the class count.
    fn renumber(&mut self, colors: &mut [ColorId], base: u32) -> u32 {
        let table = &mut self.table;
        table.clear();
        table.resize(base as usize + self.classes.len(), NONE);
        let mut next = 0;
        for c in colors.iter_mut() {
            // Branch-free: whether a color is new is hard to predict.
            let slot = &mut table[c.index()];
            let unseen = *slot == NONE;
            let id = if unseen { next } else { *slot };
            *slot = id;
            next += u32::from(unseen);
            *c = ColorId(id);
        }
        next
    }
}

impl Default for RefineEngine {
    fn default() -> Self {
        RefineEngine::auto()
    }
}

/// Scratch for grouping one class's slots by signature.
#[derive(Debug, Default)]
struct Groups {
    /// Open addressing over the signature's top bits: group ids, and
    /// [`NONE`] in an empty slot.
    table: Vec<u32>,
    /// Each slot's group.
    of: Vec<u32>,
    /// Each group's first slot.
    first: Vec<u32>,
    /// Each group's size, then its write cursor.
    cursor: Vec<u32>,
}

impl Groups {
    /// Number the distinct signatures of `slots` (at least two) by
    /// first occurrence; returns how many there are.
    fn number(&mut self, slots: &[Slot]) -> usize {
        let bits = (2 * slots.len()).next_power_of_two().trailing_zeros();
        let mask = (1 << bits) - 1;
        self.table.clear();
        self.table.resize(mask + 1, NONE);
        self.of.clear();
        self.first.clear();
        for (k, slot) in slots.iter().enumerate() {
            let mut pos = (slot.sig.0 >> (64 - bits)) as usize;
            let group = loop {
                let g = self.table[pos];
                if g == NONE {
                    self.table[pos] = self.first.len() as u32;
                    self.first.push(k as u32);
                    break self.table[pos];
                }
                if slots[self.first[g as usize] as usize].sig == slot.sig {
                    break g;
                }
                pos = (pos + 1) & mask;
            };
            self.of.push(group);
        }
        self.first.len()
    }
}

/// Split class `l`, whose members' signed slots are `slots` in member
/// order, into one class per distinct signature: its members are
/// regrouped by signature in order of first occurrence, the first
/// group keeps `l`, and every other group becomes a new class. Every
/// resulting class is marked as split in `round`; a class whose
/// members all agree keeps its members.
fn split_class(
    classes: &mut Vec<Class>,
    members: &mut [u32],
    groups: &mut Groups,
    l: usize,
    slots: &[Slot],
    round: u32,
) {
    let first = slots[0].sig;
    if slots.iter().all(|s| s.sig == first) {
        return;
    }
    let count = groups.number(slots);
    let Groups { of, cursor, .. } = groups;
    cursor.clear();
    cursor.resize(count, 0);
    for &g in of.iter() {
        cursor[g as usize] += 1;
    }
    let mut at = classes[l].start;
    for (g, slot) in cursor.iter_mut().enumerate() {
        let class = Class {
            start: at,
            end: at + *slot,
            split: round,
        };
        if g == 0 {
            classes[l] = class;
        } else {
            classes.push(class);
        }
        *slot = at;
        at = class.end;
    }
    for (slot, &g) in slots.iter().zip(of.iter()) {
        let cursor = &mut cursor[g as usize];
        members[*cursor as usize] = slot.node;
        *cursor += 1;
    }
}

/// The equation-1 signature function of one round over a grouped-CSR
/// view, with the round's inputs hoisted into plain slices.
struct Signatures<'a> {
    offsets: &'a [u32],
    preds: &'a [NodeId],
    objs: &'a [NodeId],
    colors: &'a [ColorId],
    /// One bit per initial color: held by a node of `X`.
    x_colors: &'a [u64],
}

impl Signatures<'_> {
    /// Whether a node of `X` holds initial color `c`.
    #[inline]
    fn x_color(&self, c: u32) -> bool {
        self.x_colors[c as usize / 64] >> (c % 64) & 1 == 1
    }

    /// Node `i`'s successors: the predicate and object of every
    /// outbound edge.
    fn successors(&self, i: usize) -> impl Iterator<Item = NodeId> + '_ {
        let edges = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        self.preds[edges.clone()]
            .iter()
            .chain(&self.objs[edges])
            .copied()
    }

    /// Append node `i`'s outbound color pairs to `buf`, packed.
    #[inline]
    fn gather(&self, i: usize, buf: &mut Vec<u64>) {
        let edges = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        for (p, o) in self.preds[edges.clone()].iter().zip(&self.objs[edges]) {
            let (cp, co) = (self.colors[p.index()], self.colors[o.index()]);
            buf.push(u64::from(cp.0) << 32 | u64::from(co.0));
        }
    }

    /// Sign every slot, split across at most `bufs.len()` workers.
    fn fill(&self, slots: &mut [Slot], bufs: &mut [Vec<u64>]) {
        let ranges = chunk_ranges(slots.len(), bufs.len());
        let mut tasks = Vec::with_capacity(ranges.len());
        let mut rest = slots;
        for (range, buf) in ranges.into_iter().zip(bufs) {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            tasks.push((chunk, buf));
        }
        scoped_map(tasks, |_, (chunk, buf)| {
            for group in chunk.chunks_mut(GATHER) {
                buf.clear();
                let mut ends = [0; GATHER];
                for (end, slot) in ends.iter_mut().zip(group.iter()) {
                    self.gather(slot.node as usize, buf);
                    *end = buf.len();
                }
                let mut start = 0;
                for (&end, slot) in ends.iter().zip(group.iter_mut()) {
                    let pairs = &mut buf[start..end];
                    pairs.sort_unstable();
                    slot.sig = pair_signature(pairs);
                    start = end;
                }
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

    /// An in-memory JSONL sink the test reads back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Run one traced fixpoint; returns its outcome and each round's
    /// traced `signed` count, after checking colors and rounds against
    /// the sequential reference.
    fn traced_signed(
        g: &TripleGraph,
        in_x: &[bool],
    ) -> (RefineOutcome, Vec<u64>) {
        let buf = SharedBuf::default();
        let rec = Arc::new(Recorder::jsonl_writer(Box::new(buf.clone())));
        let out = RefineEngine::with_recorder(Threads::Fixed(2), rec)
            .refine_fixpoint_mask(g, label_partition(g), in_x);
        let want = crate::refine::reference_refine_fixpoint_mask(
            g,
            label_partition(g),
            in_x,
        );
        assert_eq!(out.partition.colors(), want.partition.colors());
        assert_eq!(out.rounds, want.rounds);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let signed = text
            .lines()
            .map(|line| rdf_obs::json::parse(line).unwrap())
            .filter(|ev| {
                ev.get("name").and_then(|n| n.as_str()) == Some("refine.round")
            })
            .map(|ev| ev.get("signed").and_then(|n| n.as_u64()).unwrap())
            .collect();
        (out, signed)
    }

    /// The members of `X`'s initial classes of two or more.
    fn multi_member_nodes(g: &TripleGraph, in_x: &[bool]) -> u64 {
        let initial = label_partition(g);
        let mut size = vec![0; initial.num_colors() as usize];
        for (c, _) in initial.colors().iter().zip(in_x).filter(|p| *p.1) {
            size[c.index()] += 1;
        }
        size.into_iter().filter(|&k| k >= 2).sum()
    }

    #[test]
    fn rounds_sign_only_classes_of_two_or_more() {
        let g = sample();
        let all = vec![true; g.node_count()];
        let blanks: Vec<bool> = g.nodes().map(|n| g.is_blank(n)).collect();
        // Two of the three blanks: their class shares its color with a
        // node outside `X`.
        let mut two = blanks.clone();
        two[g.blanks()[2].index()] = false;
        for in_x in [&all, &blanks, &two] {
            let (_, signed) = traced_signed(&g, in_x);
            assert_eq!(signed[0], multi_member_nodes(&g, in_x));
        }
        // Without blank nodes every label class is a singleton.
        let mut v = Vocab::new();
        let mut b = GraphBuilder::new();
        let [a, c, p, q] =
            ["a", "c", "p", "q"].map(|u| b.add_node(v.uri(u), &v));
        let [x, y] = ["x", "y"].map(|l| b.add_node(v.literal(l), &v));
        b.add_triple(a, p, c);
        b.add_triple(c, q, x);
        b.add_triple(a, q, y);
        b.add_triple(c, p, a);
        let g = b.freeze();
        let (out, signed) = traced_signed(&g, &vec![true; g.node_count()]);
        assert_eq!(out.partition.num_colors() as usize, g.node_count());
        assert!(signed.iter().all(|&k| k == 0), "signed {signed:?}");
    }
}
