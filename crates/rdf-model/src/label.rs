//! Node labels and the label vocabulary.
//!
//! Section 2.1 of the paper: the label set is `I = U ∪ L ∪ {⊥b}` where `U`
//! are URI labels, `L` literal values, and `⊥b` a single special value
//! shared by all blank nodes. Labels are interned into dense [`LabelId`]s so
//! that label equality — the basis of the trivial alignment — is an integer
//! comparison, and so that two graph versions built against the same
//! [`Vocab`] can be combined without string comparisons.

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
/// label ids indexes the arena; each slot keeps 32 bits of its label's
/// hash, so interning hashes `(kind, text)` once, compares text only when
/// those bits match, and confirms every hit on the exact text.
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

/// The 32-bit hash tag of a label: its table position (low bits) and
/// the filter a probe checks before comparing text.
///
/// Each 8-byte word is mixed in by a folded multiply (the two halves of
/// the 128-bit product xor-ed), which carries every input bit into
/// every output bit. `FxHasher`'s plain multiply-xor does not: on the
/// scale-400 EFO dictionary it gave ~4k full 64-bit collisions and
/// average linear-probe chains of 7.9 slots at load 0.49, against
/// 1.47 for this hash.
#[inline]
fn label_tag(kind: LabelKind, text: &str) -> u32 {
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
    (fold(h ^ u64::from_le_bytes(last)) >> 32) as u32
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

    /// Whether the vocabulary holds only the blank label.
    pub fn is_empty(&self) -> bool {
        self.kinds.len() <= 1
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
        let tag = label_tag(kind, text);
        let slot = match self.probe(kind, text, tag) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = u32::try_from(self.kinds.len())
            .expect("vocabulary exceeds u32 label ids");
        self.arena.push_str(text);
        self.ends.push(self.arena.len());
        self.kinds.push(kind);
        self.slots[slot] = u64::from(tag) << 32 | u64::from(id);
        // Keep the load factor at most 3/4.
        if self.kinds.len() * 4 > self.slots.len() * 3 {
            self.grow();
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
        self.probe(kind, text, label_tag(kind, text)).ok()
    }

    /// The id of `(kind, text)`, or the empty slot where it belongs.
    #[inline]
    fn probe(
        &self,
        kind: LabelKind,
        text: &str,
        tag: u32,
    ) -> Result<LabelId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err(i);
            }
            let id = LabelId(slot as u32);
            if (slot >> 32) as u32 == tag
                && self.kinds[id.index()] == kind
                && self.text(id) == text
            {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the table. Slots move by their stored tag, so no text is
    /// hashed again.
    fn grow(&mut self) {
        let mut slots = vec![0u64; self.slots.len() * 2];
        let mask = slots.len() - 1;
        for &slot in self.slots.iter().filter(|&&s| s != 0) {
            let mut i = (slot >> 32) as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = slot;
        }
        self.slots = slots;
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
                let tag = label_tag(LabelKind::Uri, &t);
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
