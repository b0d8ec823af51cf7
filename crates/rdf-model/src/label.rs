//! Node labels and the label vocabulary.
//!
//! Section 2.1 of the paper: the label set is `I = U ∪ L ∪ {⊥b}` where `U`
//! are URI labels, `L` literal values, and `⊥b` a single special value
//! shared by all blank nodes. Labels are interned into dense [`LabelId`]s so
//! that label equality — the basis of the trivial alignment — is an integer
//! comparison, and so that two graph versions built against the same
//! [`Vocab`] can be combined without string comparisons.
//!
//! Every label has one 64-bit hash, [`label_hash`], specified byte for
//! byte in `docs/FORMAT.md` §3.1 because it is part of the store
//! format: a graph store's dictionary is sorted by it. A [`Vocab`]
//! places each label in its table by the top bits of the same hash, so
//! a dictionary in that order is interned front to back, and
//! [`Vocab::hash_order`] reads the order back off the table.

use std::fmt;

/// The three syntactic categories of RDF node labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabelKind {
    /// A URI reference (also used for predicates).
    Uri,
    /// A literal value; in this model the lexical form, datatype and
    /// language tag are folded into one interned string.
    Literal,
    /// The unique blank label `⊥b`.
    Blank,
}

/// Dense identifier of an interned label. `LabelId::BLANK` (= 0) is the
/// shared blank label; all other ids denote URIs or literals.
///
/// `repr(transparent)` over `u32` is a guarantee, not an accident: the
/// zero-copy store readers ([`crate::view`]) reinterpret aligned
/// little-endian byte columns as `&[LabelId]` without a decode pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The single blank label `⊥b`. Every vocabulary reserves id 0 for it.
    pub const BLANK: LabelId = LabelId(0);

    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the blank label.
    #[inline]
    pub fn is_blank(self) -> bool {
        self == Self::BLANK
    }
}

/// A borrowed view of a resolved label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelRef<'a> {
    /// URI label with its text.
    Uri(&'a str),
    /// Literal label with its lexical text.
    Literal(&'a str),
    /// The blank label.
    Blank,
}

impl<'a> LabelRef<'a> {
    /// The syntactic category of this label.
    pub fn kind(&self) -> LabelKind {
        match self {
            LabelRef::Uri(_) => LabelKind::Uri,
            LabelRef::Literal(_) => LabelKind::Literal,
            LabelRef::Blank => LabelKind::Blank,
        }
    }

    /// The label text; blank labels have none.
    pub fn text(&self) -> Option<&'a str> {
        match self {
            LabelRef::Uri(s) | LabelRef::Literal(s) => Some(s),
            LabelRef::Blank => None,
        }
    }
}

impl fmt::Display for LabelRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelRef::Uri(s) => write!(f, "{s}"),
            LabelRef::Literal(s) => write!(f, "{s:?}"),
            LabelRef::Blank => write!(f, "_:b"),
        }
    }
}

/// Interning vocabulary shared by all graph versions under alignment.
///
/// URIs and literals live in disjoint namespaces (per §2.1, `U` and `L`
/// are disjoint), so the URI `"x"` and the literal `"x"` receive distinct
/// ids. Interning is append-only; ids are stable for the life of the vocab.
///
/// Storage is one text arena: every label's text is appended to a single
/// `String`, and label `i` is the slice between the end offsets of labels
/// `i - 1` and `i`. No label owns an allocation, so a vocabulary of a
/// million labels is a handful of buffers. An open-addressing table of
/// label ids indexes the arena; each slot keeps the top 32 bits of its
/// label's [`label_hash`], so interning hashes `(kind, text)` once,
/// compares text only when those bits match, and confirms every hit on
/// the exact text.
///
/// A label's home slot is the **top** bits of its hash, so slot order
/// is hash order: labels interned in ascending hash order (a graph
/// store's `DICT`) fill the table, the arena and the end offsets front
/// to back, and [`Vocab::hash_order`] reads the store order off the
/// table without hashing again. Ascending inserts into a table too
/// small for them would pile into one cluster, so an insert whose probe
/// runs long at a load of at most 1/2 doubles the table.
#[derive(Debug, Clone)]
pub struct Vocab {
    /// Every label's text, back to back, in id order.
    arena: String,
    /// End offset of each label's text in `arena`; label `i` starts
    /// where label `i - 1` ends (the blank label, id 0, is empty).
    ends: Vec<usize>,
    kinds: Vec<LabelKind>,
    /// Linear-probing table, a power of two long. A slot is 0 when
    /// empty, else `hash tag << 32 | id` — the blank label (id 0) is
    /// never interned, so no occupied slot is 0.
    slots: Vec<u64>,
}

/// Slots a fresh vocabulary starts with.
const MIN_SLOTS: usize = 16;

/// An insert that probes past this many slots while the table is at
/// most half full doubles it: at that load a probe this long means the
/// hashes are poorly spread over the table's top bits (ascending
/// inserts into a small table), not chance.
const PROBE_LIMIT: usize = 128;

/// Growth for spread alone stops at this many slots per label, so
/// labels crafted to share their hash's top bits cannot make the table
/// large.
const SPREAD_SLOTS_PER_LABEL: usize = 1024;

/// The 64-bit hash of a label, which orders a graph store's `DICT`
/// (`docs/FORMAT.md` §3.1) and places the label in a [`Vocab`]'s table
/// by its top bits. The blank kind has no text and is never hashed.
///
/// The state starts as `kind | byte_len << 8` (URI 0, literal 1). Each
/// 8-byte little-endian word of the text is mixed in by a folded
/// multiply, `fold(h ^ word)`, where `fold(a)` xors the two halves of
/// the 128-bit product `a · 0x9e37_79b9_7f4a_7c15`; the tail is
/// zero-padded to one last word, which is mixed in even when empty.
/// The fold carries every input bit into every output bit.
/// `FxHasher`'s plain multiply-xor does not: on the scale-400 EFO
/// dictionary it gave ~4k full 64-bit collisions and average
/// linear-probe chains of 7.9 slots at load 0.49, against 1.47 for this
/// hash.
#[inline]
pub fn label_hash(kind: LabelKind, text: &str) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |a: u64| {
        let p = u128::from(a) * u128::from(K);
        p as u64 ^ (p >> 64) as u64
    };
    let bytes = text.as_bytes();
    let mut h = kind as u64 | (bytes.len() as u64) << 8;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word: [u8; 8] = word.try_into().expect("an 8-byte chunk");
        h = fold(h ^ u64::from_le_bytes(word));
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    fold(h ^ u64::from_le_bytes(last))
}

/// The 32-bit tag a slot keeps: the top half of the hash, which is
/// both the label's table position and the filter a probe checks
/// before comparing text.
#[inline]
fn tag_of(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// The home slot of `tag` in a table of `len` slots (a power of two):
/// the tag's top `log2(len)` bits.
#[inline]
fn home(tag: u32, len: usize) -> usize {
    ((u64::from(tag) << 32) >> (64 - len.trailing_zeros())) as usize
}

impl Default for Vocab {
    fn default() -> Self {
        Vocab::new()
    }
}

impl Vocab {
    /// Create a vocabulary containing only the blank label.
    pub fn new() -> Self {
        Vocab {
            arena: String::new(),
            // Reserve id 0 for the blank label.
            ends: vec![0],
            kinds: vec![LabelKind::Blank],
            slots: vec![0; MIN_SLOTS],
        }
    }

    /// Number of interned labels, including the blank label.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Total bytes of every label's text.
    pub fn text_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Whether the vocabulary holds only the blank label.
    pub fn is_empty(&self) -> bool {
        self.kinds.len() <= 1
    }

    /// Make room for `labels` labels in all (the blank label included)
    /// holding `text_bytes` bytes of text in all, so that interning up
    /// to that much grows neither the table nor the arena and the
    /// per-label columns. Both are totals, not additions.
    pub fn reserve(&mut self, labels: usize, text_bytes: usize) {
        self.arena
            .reserve_exact(text_bytes.saturating_sub(self.arena.len()));
        let more = labels.saturating_sub(self.kinds.len());
        self.ends.reserve_exact(more);
        self.kinds.reserve_exact(more);
        let need = labels
            .saturating_mul(4)
            .div_ceil(3)
            .next_power_of_two()
            .max(MIN_SLOTS);
        if need > self.slots.len() {
            self.rebuild(need);
        }
    }

    /// Intern a URI label.
    pub fn uri(&mut self, text: &str) -> LabelId {
        self.intern(LabelKind::Uri, text)
    }

    /// Intern a literal label.
    pub fn literal(&mut self, text: &str) -> LabelId {
        self.intern(LabelKind::Literal, text)
    }

    /// Intern a label of either namespace; a label is new exactly when
    /// its id is the vocabulary's length before the call. The blank
    /// kind always yields [`LabelId::BLANK`] (blank labels carry no
    /// text).
    pub fn intern(&mut self, kind: LabelKind, text: &str) -> LabelId {
        if kind == LabelKind::Blank {
            return LabelId::BLANK;
        }
        self.intern_hashed(kind, text, label_hash(kind, text))
    }

    /// [`Vocab::intern`] with the label's hash already computed by the
    /// caller; `hash` must be [`label_hash`]`(kind, text)`.
    pub fn intern_hashed(
        &mut self,
        kind: LabelKind,
        text: &str,
        hash: u64,
    ) -> LabelId {
        debug_assert!(
            kind == LabelKind::Blank || hash == label_hash(kind, text)
        );
        if kind == LabelKind::Blank {
            return LabelId::BLANK;
        }
        let tag = tag_of(hash);
        let (slot, probed) = match self.probe(kind, text, tag) {
            Ok(id) => return id,
            Err(at) => at,
        };
        let id = u32::try_from(self.kinds.len())
            .expect("vocabulary exceeds u32 label ids");
        self.arena.push_str(text);
        self.ends.push(self.arena.len());
        self.kinds.push(kind);
        self.slots[slot] = u64::from(tag) << 32 | u64::from(id);
        // Keep the load factor at most 3/4, and spread a long probe at
        // low load (see `PROBE_LIMIT`).
        let (labels, slots) = (self.kinds.len(), self.slots.len());
        if labels * 4 > slots * 3
            || probed > PROBE_LIMIT
                && labels * 2 <= slots
                && slots < labels * SPREAD_SLOTS_PER_LABEL
        {
            self.rebuild(slots * 2);
        }
        LabelId(id)
    }

    /// Look up an already-interned URI without interning.
    pub fn find_uri(&self, text: &str) -> Option<LabelId> {
        self.find(LabelKind::Uri, text)
    }

    /// Look up an already-interned literal without interning.
    pub fn find_literal(&self, text: &str) -> Option<LabelId> {
        self.find(LabelKind::Literal, text)
    }

    fn find(&self, kind: LabelKind, text: &str) -> Option<LabelId> {
        self.probe(kind, text, tag_of(label_hash(kind, text))).ok()
    }

    /// The id of `(kind, text)`, or the empty slot where it belongs
    /// and how many occupied slots the probe passed on the way.
    #[inline]
    fn probe(
        &self,
        kind: LabelKind,
        text: &str,
        tag: u32,
    ) -> Result<LabelId, (usize, usize)> {
        let mask = self.slots.len() - 1;
        let mut i = home(tag, self.slots.len());
        let mut probed = 0;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err((i, probed));
            }
            let id = LabelId(slot as u32);
            if (slot >> 32) as u32 == tag
                && self.kinds[id.index()] == kind
                && self.text(id) == text
            {
                return Ok(id);
            }
            i = (i + 1) & mask;
            probed += 1;
        }
    }

    /// Move every slot into a new table of `len` slots (a power of
    /// two) by its stored tag, so no text is hashed again. Homes keep
    /// their order, so the old table is read and the new one written
    /// front to back.
    fn rebuild(&mut self, len: usize) {
        let mut slots = vec![0u64; len];
        let mask = len - 1;
        for &slot in self.slots.iter().filter(|&&s| s != 0) {
            let mut i = home((slot >> 32) as u32, len);
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = slot;
        }
        self.slots = slots;
    }

    /// Every label but the blank one, ascending by
    /// `(`[`label_hash`]`, kind, text)`: the order of a graph store's
    /// `DICT`.
    ///
    /// Homes ascend with the hash, and linear probing keeps a label
    /// inside the cluster (the run of occupied slots) that holds its
    /// home, so the clusters in slot order are in hash order and only
    /// each cluster's few labels need sorting, by their stored tags.
    /// Only labels whose 32-bit tags tie are hashed again, to break the
    /// tie on the full hash, then kind and text. The one cluster that
    /// runs past the last slot into the first ones holds the table's
    /// first homes and its last ones, and is split between the two
    /// ends of the order.
    pub fn hash_order(&self) -> Vec<LabelId> {
        let len = self.slots.len();
        let mut ids = Vec::with_capacity(self.kinds.len() - 1);
        let mut cluster = Vec::new();
        // The table is never full, so it has a first empty slot; the
        // slots before it that hold a home past them wrapped around.
        let head = self.slots.iter().position(|&s| s == 0).unwrap_or(len);
        let mut wrapped = Vec::new();
        for (i, &slot) in self.slots[..head].iter().enumerate() {
            if home((slot >> 32) as u32, len) > i {
                wrapped.push(slot);
            } else {
                cluster.push(slot);
            }
        }
        self.emit_sorted(&mut cluster, &mut ids);
        for &slot in &self.slots[head..] {
            if slot == 0 {
                self.emit_sorted(&mut cluster, &mut ids);
            } else {
                cluster.push(slot);
            }
        }
        cluster.append(&mut wrapped);
        self.emit_sorted(&mut cluster, &mut ids);
        ids
    }

    /// Sort one cluster's slots by `(label_hash, kind, text)`, append
    /// their ids to `ids` and empty the cluster.
    fn emit_sorted(&self, cluster: &mut Vec<u64>, ids: &mut Vec<LabelId>) {
        cluster.sort_unstable();
        for run in cluster.chunk_by(|a, b| a >> 32 == b >> 32) {
            let start = ids.len();
            ids.extend(run.iter().map(|&s| LabelId(s as u32)));
            if run.len() > 1 {
                ids[start..].sort_unstable_by_key(|&id| {
                    let (kind, text) = (self.kind(id), self.text(id));
                    (label_hash(kind, text), kind, text)
                });
            }
        }
        cluster.clear();
    }

    /// The kind of every label, by id; entry 0 is the blank label.
    pub fn kinds(&self) -> &[LabelKind] {
        &self.kinds
    }

    /// The syntactic category of a label.
    #[inline]
    pub fn kind(&self, id: LabelId) -> LabelKind {
        self.kinds[id.index()]
    }

    /// Resolve an id to a borrowed label view.
    #[inline]
    pub fn resolve(&self, id: LabelId) -> LabelRef<'_> {
        match self.kinds[id.index()] {
            LabelKind::Uri => LabelRef::Uri(self.text(id)),
            LabelKind::Literal => LabelRef::Literal(self.text(id)),
            LabelKind::Blank => LabelRef::Blank,
        }
    }

    /// The raw text of a label (empty for the blank label).
    #[inline]
    pub fn text(&self, id: LabelId) -> &str {
        let i = id.index();
        &self.arena[self.ends[i.saturating_sub(1)]..self.ends[i]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_is_reserved() {
        let v = Vocab::new();
        assert_eq!(v.kind(LabelId::BLANK), LabelKind::Blank);
        assert_eq!(v.resolve(LabelId::BLANK), LabelRef::Blank);
        assert!(LabelId::BLANK.is_blank());
        assert_eq!(v.len(), 1);
        assert!(v.is_empty());
    }

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.uri("http://example.org/a");
        let b = v.uri("http://example.org/a");
        assert_eq!(a, b);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn uri_and_literal_namespaces_are_disjoint() {
        let mut v = Vocab::new();
        let u = v.uri("x");
        let l = v.literal("x");
        assert_ne!(u, l);
        assert_eq!(v.kind(u), LabelKind::Uri);
        assert_eq!(v.kind(l), LabelKind::Literal);
        assert_eq!(v.text(u), "x");
        assert_eq!(v.text(l), "x");
    }

    #[test]
    fn find_does_not_intern() {
        let mut v = Vocab::new();
        assert_eq!(v.find_uri("u"), None);
        let id = v.uri("u");
        assert_eq!(v.find_uri("u"), Some(id));
        assert_eq!(v.find_literal("u"), None);
    }

    #[test]
    fn resolve_round_trips() {
        let mut v = Vocab::new();
        let u = v.uri("http://e.org/x");
        let l = v.literal("A literal with spaces");
        assert_eq!(v.resolve(u), LabelRef::Uri("http://e.org/x"));
        assert_eq!(v.resolve(l), LabelRef::Literal("A literal with spaces"));
        assert_eq!(v.resolve(u).text(), Some("http://e.org/x"));
        assert_eq!(v.resolve(LabelId::BLANK).text(), None);
    }

    /// Two texts whose 32-bit hash tags collide are still two labels:
    /// a probe hit is confirmed by the exact text, never by the tag.
    #[test]
    fn colliding_tags_stay_distinct_labels() {
        let mut first_with_tag = std::collections::HashMap::new();
        let (a, b) = (0u32..)
            .map(|i| format!("http://e.org/{i}"))
            .find_map(|t| {
                let tag = tag_of(label_hash(LabelKind::Uri, &t));
                first_with_tag.insert(tag, t.clone()).map(|prev| (prev, t))
            })
            .unwrap();
        let mut v = Vocab::new();
        let ia = v.uri(&a);
        assert_eq!(v.find_uri(&b), None);
        let ib = v.uri(&b);
        assert_ne!(ia, ib);
        assert_eq!((v.find_uri(&a), v.find_uri(&b)), (Some(ia), Some(ib)));
        assert_eq!((v.text(ia), v.text(ib)), (a.as_str(), b.as_str()));
    }

    /// Labels interned in ascending hash order — a graph store's
    /// `DICT`, or N-Triples crafted that way — all have homes in the
    /// front of a table too small for them, and without the spread
    /// rule would pile into one cluster that every insert walks to its
    /// end. With it, no insert's probe passes a bounded number of
    /// slots, the probes total a few per label, and the table stays
    /// within twice what the load rule alone would give. Counted, not
    /// timed.
    #[test]
    fn ascending_hash_inserts_keep_probes_short() {
        const N: usize = 200_000;
        let mut labels: Vec<(u64, String)> = (0..N)
            .map(|i| {
                let text = format!("http://e.org/{i}");
                (label_hash(LabelKind::Uri, &text), text)
            })
            .collect();
        labels.sort_unstable();
        let descending: Vec<_> = labels.iter().rev().cloned().collect();
        for order in [&labels, &descending] {
            let mut v = Vocab::new();
            let (mut longest, mut total) = (0, 0);
            for (hash, text) in order {
                let probed =
                    match v.probe(LabelKind::Uri, text, tag_of(*hash)) {
                        Err((_, probed)) => probed,
                        Ok(_) => unreachable!("labels are distinct"),
                    };
                longest = longest.max(probed);
                total += probed;
                v.intern_hashed(LabelKind::Uri, text, *hash);
            }
            assert_eq!(v.len(), N + 1);
            assert!(longest <= 4 * PROBE_LIMIT, "longest probe {longest}");
            assert!(total <= 4 * N, "probes total {total}");
            let by_load = ((N + 1) * 4).div_ceil(3).next_power_of_two();
            assert!(v.slots.len() <= 2 * by_load, "{} slots", v.slots.len());
            assert_eq!(v.hash_order().len(), N);
        }
    }

    #[test]
    fn display_formats() {
        let mut v = Vocab::new();
        let u = v.uri("u:x");
        let l = v.literal("lit");
        assert_eq!(format!("{}", v.resolve(u)), "u:x");
        assert_eq!(format!("{}", v.resolve(l)), "\"lit\"");
        assert_eq!(format!("{}", v.resolve(LabelId::BLANK)), "_:b");
    }
}
