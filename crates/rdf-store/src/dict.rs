//! Shared `DICT`-section encoding: the label dictionary used by both the
//! graph store and the archive container (one format, two content
//! kinds — a change here changes both, by construction).
//!
//! Layout: varint entry count (including the implicit blank label at
//! id 0), then per non-blank entry a kind tag (1 = URI, 2 = literal), a
//! varint byte length, and the UTF-8 text.
//!
//! A graph store's entries are strictly ascending by
//! `(`[`label_hash`]`, kind, text bytes)` (`docs/FORMAT.md` §3.1), the
//! order [`Vocab::hash_order`] reads off a vocabulary's table. Archives
//! keep their own order.
//!
//! Every reader walks a body in place with [`DictEntries`], which
//! borrows each entry's text from the (mapped) bytes.
//! [`intern_entries`] joins a graph store's entries into a vocabulary —
//! the store load's join into the session vocabulary. Because a label's
//! table slot is the top bits of the same hash, the join writes and
//! probes the table front to back, and its order check is also the
//! repeat check. [`read_dict`] interns an archive's entries into a fresh
//! vocabulary.

use crate::error::StoreError;
use crate::varint::{read_varint_usize, write_varint};
use rdf_model::{label_hash, LabelId, LabelKind, Vocab};

/// Append a dictionary section body for the given label ids (the blank
/// label is implicit and must not be among `ids`).
pub fn write_dict(
    out: &mut Vec<u8>,
    vocab: &Vocab,
    ids: impl ExactSizeIterator<Item = LabelId>,
) -> Result<(), StoreError> {
    write_varint(out, ids.len() as u64 + 1);
    for label in ids {
        let kind = match vocab.kind(label) {
            LabelKind::Uri => 1u8,
            LabelKind::Literal => 2u8,
            LabelKind::Blank => {
                return Err(StoreError::Corrupt(
                    "non-zero blank label in dictionary".into(),
                ))
            }
        };
        let text = vocab.text(label);
        out.push(kind);
        write_varint(out, text.len() as u64);
        out.extend_from_slice(text.as_bytes());
    }
    Ok(())
}

/// The entries of a dictionary section body, walked in place: each
/// non-blank entry is borrowed from the body bytes as
/// `(LabelKind, &str)`, with its kind tag and UTF-8 validated. The walk
/// allocates nothing; every reader of `DICT` goes through it.
///
/// UTF-8 is validated a stretch of the body at a time, not text by
/// text: a text is preceded by the last byte of its length varint,
/// which is ASCII, so a text inside a valid stretch that ends on a
/// character boundary is valid on its own. A stretch ends where the
/// body stops being UTF-8 (a length of 128 or more, or a bad text);
/// the text there is checked alone and the next stretch starts after
/// it.
///
/// The iterator stops after the first error; [`DictEntries::pos`] is
/// then meaningless.
#[derive(Debug, Clone)]
pub struct DictEntries<'a> {
    buf: &'a [u8],
    pos: usize,
    label_count: usize,
    /// Non-blank entries not yet read.
    remaining: usize,
    /// The valid UTF-8 stretch of `buf` starting at `run_at`.
    run: &'a str,
    run_at: usize,
}

impl<'a> DictEntries<'a> {
    /// Read the entry count at `pos` and start the walk after it.
    pub fn new(buf: &'a [u8], mut pos: usize) -> Result<Self, StoreError> {
        let label_count = read_varint_usize(buf, &mut pos)?;
        if label_count == 0 {
            return Err(StoreError::Corrupt(
                "dictionary must at least hold the blank label".into(),
            ));
        }
        Ok(DictEntries {
            buf,
            pos,
            label_count,
            remaining: label_count - 1,
            run: "",
            run_at: pos,
        })
    }

    /// The declared label count, including the implicit blank label.
    /// Untrusted: a walk that runs out of bytes first is `Truncated`.
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// Byte offset just past the entries read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// An allocation bound for one slot per label: the declared count,
    /// capped by what the unread bytes could hold (each entry takes at
    /// least 2), so a forged count never sizes an allocation.
    pub fn capacity_hint(&self) -> usize {
        1 + self.remaining.min((self.buf.len() - self.pos) / 2)
    }

    fn entry(&mut self) -> Result<(LabelKind, &'a str), StoreError> {
        let kind = match self.buf.get(self.pos) {
            Some(1) => LabelKind::Uri,
            Some(2) => LabelKind::Literal,
            Some(k) => {
                return Err(StoreError::Corrupt(format!(
                    "invalid label kind tag {k}"
                )))
            }
            None => {
                return Err(StoreError::Truncated {
                    what: "dictionary entry",
                })
            }
        };
        self.pos += 1;
        let len = read_varint_usize(self.buf, &mut self.pos)?;
        let start = self.pos;
        let truncated = || StoreError::Truncated {
            what: "dictionary text",
        };
        let end = start.checked_add(len).ok_or_else(truncated)?;
        let bytes = self.buf.get(start..end).ok_or_else(truncated)?;
        self.pos = end;
        if let Some(text) = self.run.get(start - self.run_at..end - self.run_at)
        {
            return Ok((kind, text));
        }
        let text = std::str::from_utf8(bytes).map_err(|_| {
            StoreError::Corrupt("dictionary text is not UTF-8".into())
        })?;
        let rest = &self.buf[end..];
        self.run = match std::str::from_utf8(rest) {
            Ok(run) => run,
            Err(e) => std::str::from_utf8(&rest[..e.valid_up_to()])
                .expect("valid up to its first error"),
        };
        self.run_at = end;
        Ok((kind, text))
    }
}

impl<'a> Iterator for DictEntries<'a> {
    type Item = Result<(LabelKind, &'a str), StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let entry = self.entry();
        self.remaining = if entry.is_ok() { self.remaining - 1 } else { 0 };
        Some(entry)
    }
}

/// What interning one dictionary into a vocabulary produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictJoin {
    /// Dictionary id → vocabulary id; entry 0, the blank label, maps to
    /// [`LabelId::BLANK`].
    pub map: Vec<LabelId>,
    /// How many entries the vocabulary did not hold before.
    pub new: usize,
}

impl DictJoin {
    /// How many entries the vocabulary already held.
    pub fn shared(&self) -> usize {
        self.map.len() - 1 - self.new
    }
}

/// Intern every remaining entry of a graph store's `DICT` into
/// `vocab`, one hash per label. The entries must be strictly ascending
/// by `(label_hash, kind, text)`; a pair that is not is `Corrupt`, and
/// since equal entries are such a pair, so is a repeated label, whether
/// or not `vocab` held it before. `vocab` is first sized for the larger
/// of itself and the dictionary (its label count, and the unread body
/// bytes as a bound on its text), never their sum, so the join grows it
/// at most once more. On error `vocab` keeps the labels interned
/// before it.
pub fn intern_entries(
    entries: &mut DictEntries<'_>,
    vocab: &mut Vocab,
) -> Result<DictJoin, StoreError> {
    let before = vocab.len();
    let body = entries.buf.len() - entries.pos;
    vocab.reserve(
        before.max(entries.capacity_hint()),
        vocab.text_bytes().max(body),
    );
    let mut map = Vec::with_capacity(entries.capacity_hint());
    map.push(LabelId::BLANK);
    let mut prev: Option<(u64, LabelKind, &str)> = None;
    for entry in entries {
        let (kind, text) = entry?;
        let key = (label_hash(kind, text), kind, text);
        if prev.is_some_and(|prev| prev >= key) {
            return Err(StoreError::Corrupt(
                "dictionary entries not strictly ascending by \
                 (hash, kind, text): repeated or out of order"
                    .into(),
            ));
        }
        prev = Some(key);
        map.push(vocab.intern_hashed(kind, text, key.0));
    }
    Ok(DictJoin {
        new: vocab.len() - before,
        map,
    })
}

/// Decode an archive's dictionary section body into a fresh [`Vocab`]
/// (dense ids in entry order, blank at 0); a text repeated within a
/// namespace is `Corrupt`. Counts and lengths are untrusted: allocation
/// is capped by the bytes actually present, and all arithmetic is
/// checked.
pub fn read_dict(buf: &[u8], pos: &mut usize) -> Result<Vocab, StoreError> {
    let mut entries = DictEntries::new(buf, *pos)?;
    let mut vocab = Vocab::new();
    for entry in &mut entries {
        let (kind, text) = entry?;
        let len = vocab.len();
        if vocab.intern(kind, text).index() != len {
            return Err(StoreError::Corrupt(
                "duplicate label text within a namespace".into(),
            ));
        }
    }
    *pos = entries.pos();
    Ok(vocab)
}

/// Read a varint length-prefixed UTF-8 string in place, with checked
/// bounds.
pub(crate) fn read_str<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<&'a str, StoreError> {
    let len = read_varint_usize(buf, pos)?;
    let end = pos
        .checked_add(len)
        .ok_or(StoreError::Truncated { what })?;
    let bytes = buf.get(*pos..end).ok_or(StoreError::Truncated { what })?;
    *pos = end;
    std::str::from_utf8(bytes)
        .map_err(|_| StoreError::Corrupt(format!("{what} is not UTF-8")))
}

/// Read a varint length-prefixed UTF-8 string with checked bounds.
pub fn read_string(
    buf: &[u8],
    pos: &mut usize,
    what: &'static str,
) -> Result<String, StoreError> {
    read_str(buf, pos, what).map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut vocab = Vocab::new();
        let u = vocab.uri("http://e.org/x");
        let l = vocab.literal("a literal");
        let mut buf = Vec::new();
        write_dict(&mut buf, &vocab, [u, l].into_iter()).unwrap();
        let mut pos = 0;
        let v2 = read_dict(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(v2.len(), 3);
        assert_eq!(v2.find_uri("http://e.org/x"), Some(LabelId(1)));
        assert_eq!(v2.find_literal("a literal"), Some(LabelId(2)));
    }

    /// A dictionary body in the `DICT` encoding, its count given
    /// separately so tests can make it lie.
    fn body(count: u64, entries: &[(u8, &[u8])]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_varint(&mut buf, count);
        for (tag, text) in entries {
            buf.push(*tag);
            write_varint(&mut buf, text.len() as u64);
            buf.extend_from_slice(text);
        }
        buf
    }

    /// [`read_dict`] rebuilds the intern table of the vocabulary it
    /// decodes: lookups find the stored ids, and further interning
    /// continues from them.
    #[test]
    fn raw_parts_rebuild_intern_maps() {
        let mut v = Vocab::new();
        let u = v.uri("u:x");
        let l = v.literal("x");
        let mut buf = Vec::new();
        write_dict(&mut buf, &v, [u, l].into_iter()).unwrap();
        let mut v2 = read_dict(&buf, &mut 0).unwrap();
        assert_eq!(v2.find_uri("u:x"), Some(u));
        assert_eq!(v2.find_literal("x"), Some(l));
        // Further interning continues from the rebuilt state.
        assert_eq!(v2.uri("u:x"), u);
        assert_eq!(v2.uri("u:new"), LabelId(v.len() as u32));
    }

    /// Every malformed dictionary is a typed error: no blank label, a
    /// blank or unknown kind tag, a repeated text within a namespace,
    /// non-UTF-8 text and a truncated entry. The same text in both
    /// namespaces is two labels, not a repeat.
    #[test]
    fn raw_parts_reject_bad_dictionaries() {
        let corrupt = |buf: Vec<u8>| {
            matches!(read_dict(&buf, &mut 0), Err(StoreError::Corrupt(_)))
        };
        assert!(corrupt(body(0, &[])));
        assert!(corrupt(body(2, &[(0, b"x")])));
        assert!(corrupt(body(2, &[(3, b"x")])));
        assert!(corrupt(body(3, &[(1, b"dup"), (1, b"dup")])));
        assert!(corrupt(body(2, &[(2, b"\xff\xfe")])));
        assert!(matches!(
            read_dict(&body(3, &[(1, b"x")]), &mut 0),
            Err(StoreError::Truncated { .. })
        ));
        let mut cut = body(2, &[(1, b"abc")]);
        cut.pop();
        assert!(matches!(
            read_dict(&cut, &mut 0),
            Err(StoreError::Truncated { .. })
        ));
        let v = read_dict(&body(3, &[(1, b"x"), (2, b"x")]), &mut 0).unwrap();
        assert_eq!(v.len(), 3);
    }

    /// `entries` in a graph store's order: ascending by
    /// `(label_hash, kind, text)`.
    fn hash_sorted<'a>(entries: &[(u8, &'a [u8])]) -> Vec<(u8, &'a [u8])> {
        let mut sorted = entries.to_vec();
        sorted.sort_by_key(|&(tag, text)| {
            let kind = [LabelKind::Uri, LabelKind::Literal][tag as usize - 1];
            let text = std::str::from_utf8(text).unwrap();
            (label_hash(kind, text), kind, text)
        });
        sorted
    }

    /// Interning into a vocabulary that already holds some labels maps
    /// them to their existing ids, counts new and shared entries, and
    /// still refuses a text the dictionary repeats.
    #[test]
    fn intern_joins_a_populated_vocabulary() {
        let mut session = Vocab::new();
        session.uri("unrelated");
        let shared = session.literal("x");
        let entries = hash_sorted(&[(1, b"fresh"), (2, b"x")]);
        let buf = body(3, &entries);
        let mut walk = DictEntries::new(&buf, 0).unwrap();
        let join = intern_entries(&mut walk, &mut session).unwrap();
        let want = |text: &[u8]| if text == b"x" { shared } else { LabelId(3) };
        let expected: Vec<LabelId> = std::iter::once(LabelId::BLANK)
            .chain(entries.iter().map(|&(_, text)| want(text)))
            .collect();
        assert_eq!(join.map, expected);
        assert_eq!((join.new, join.shared()), (1, 1));
        assert_eq!(walk.pos(), buf.len());

        for dup in [
            body(3, &[(2, b"x"), (2, b"x")]),
            body(3, &[(1, b"new"), (1, b"new")]),
        ] {
            let mut entries = DictEntries::new(&dup, 0).unwrap();
            assert!(matches!(
                intern_entries(&mut entries, &mut session.clone()),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    /// A graph store's entries must ascend by `(hash, kind, text)`:
    /// two labels in descending hash order are `Corrupt`, and so are
    /// two labels of equal hash in the wrong kind order. A URI and a
    /// literal whose first words differ exactly by the kind seed hash
    /// the same, and the URI (kind 0) comes first.
    #[test]
    fn intern_refuses_entries_out_of_hash_order() {
        let corrupt = |entries: &[(u8, &[u8])]| {
            let buf = body(entries.len() as u64 + 1, entries);
            let mut walk = DictEntries::new(&buf, 0).unwrap();
            matches!(
                intern_entries(&mut walk, &mut Vocab::new()),
                Err(StoreError::Corrupt(m)) if m.contains("ascending")
            )
        };
        let sorted = hash_sorted(&[(1, b"a"), (1, b"b"), (2, b"c")]);
        assert!(!corrupt(&sorted));
        let mut reversed = sorted.clone();
        reversed.reverse();
        assert!(corrupt(&reversed));

        let uri = &b"aaaaaaaabbbbbbbb"[..];
        let literal = &b"`aaaaaaabbbbbbbb"[..];
        assert_eq!(
            label_hash(LabelKind::Uri, "aaaaaaaabbbbbbbb"),
            label_hash(LabelKind::Literal, "`aaaaaaabbbbbbbb")
        );
        assert!(!corrupt(&[(1, uri), (2, literal)]));
        assert!(corrupt(&[(2, literal), (1, uri)]));
    }

    #[test]
    fn huge_claimed_count_does_not_allocate() {
        // A 6-byte body claiming 2^60 entries must fail with a typed
        // error, not abort on allocation.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 60);
        buf.push(1);
        let mut pos = 0;
        assert!(matches!(
            read_dict(&buf, &mut pos),
            Err(StoreError::Truncated { .. }) | Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn huge_claimed_string_length_is_truncation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(matches!(
            read_string(&buf, &mut pos, "test"),
            Err(StoreError::Truncated { .. })
        ));
    }
}
