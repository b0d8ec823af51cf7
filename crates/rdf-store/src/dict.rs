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
//! borrows each entry's text from the (mapped) bytes, and reads a graph
//! store's entries as a [`KeyStream`] ([`DictKeys`]), which hashes each
//! one into a [`LabelKey`] and refuses a stream that does not strictly
//! ascend; a repeated label is such a stream, so the order check is
//! also the repeat check.
//!
//! Two joins consume those keys:
//!
//! * [`merge_labels`] — the session load's join of two inputs: one
//!   streaming merge of their hash-ordered label streams (a store's
//!   `DICT`, or a parsed text's [`Vocab::hash_order`] through
//!   [`VocabKeys`]). Session label ids are the ranks of the merged
//!   order; it keeps each label's kind, and its text only when asked
//!   to.
//! * [`intern_entries`] — one store's entries interned into a
//!   vocabulary, for the loads that keep a [`Vocab`] (`read_graph`,
//!   `export`). Because a label's table slot is the top bits of the
//!   same hash, it writes and probes the table front to back.
//!
//! [`read_dict`] interns an archive's entries into a fresh vocabulary.

use crate::container::Windows;
use crate::error::StoreError;
use crate::fixed::check_pad8;
use crate::mmap::{StoreBuf, RELEASE_WINDOW};
use crate::varint::{read_varint_usize, write_varint, VARINT_MAX};
use rdf_model::{label_hash, LabelId, LabelKind, Vocab};

/// Put a dictionary section body for the given label ids (the blank
/// label is implicit and must not be among `ids`), entry by entry.
pub fn write_dict(
    w: &mut Windows<'_>,
    vocab: &Vocab,
    ids: impl ExactSizeIterator<Item = LabelId>,
) -> Result<(), StoreError> {
    write_varint(w.room(VARINT_MAX)?, ids.len() as u64 + 1);
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
        let head = w.room(1 + VARINT_MAX)?;
        head.push(kind);
        write_varint(head, text.len() as u64);
        w.put(text.as_bytes())?;
    }
    Ok(())
}

/// The most bytes one UTF-8 stretch of a [`DictEntries`] walk covers.
const RUN_BYTES: usize = 64 << 10;

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
/// A stretch is at most 64 KiB long, so the check reads only a
/// little ahead of the walk (which keeps few pages of a mapped body
/// resident ahead of the cursor).
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

    /// The next entry if it is the common shape — a valid tag, a
    /// one-byte length and a text inside the current UTF-8 stretch —
    /// read without building an error path; `None` leaves the walk
    /// where it was, for [`DictEntries::next`] to read or refuse.
    #[inline]
    fn next_plain(&mut self) -> Option<(LabelKind, &'a str)> {
        if self.remaining == 0 {
            return None;
        }
        let &[tag @ (1 | 2), len @ 0..0x80] =
            self.buf.get(self.pos..self.pos + 2)?
        else {
            return None;
        };
        let start = self.pos + 2 - self.run_at;
        let text = self.run.get(start..start + usize::from(len))?;
        self.pos += 2 + usize::from(len);
        self.remaining -= 1;
        let kind = [LabelKind::Uri, LabelKind::Literal][usize::from(tag - 1)];
        Some((kind, text))
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
        let ahead = &self.buf[end..self.buf.len().min(end + RUN_BYTES)];
        self.run = ahead.utf8_chunks().next().map_or("", |c| c.valid());
        self.run_at = end;
        Ok((kind, text))
    }
}

impl<'a> Iterator for DictEntries<'a> {
    type Item = Result<(LabelKind, &'a str), StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(entry) = self.next_plain() {
            return Some(Ok(entry));
        }
        if self.remaining == 0 {
            return None;
        }
        let entry = self.entry();
        self.remaining = if entry.is_ok() { self.remaining - 1 } else { 0 };
        Some(entry)
    }

}

/// A label as a graph store orders its `DICT`: by [`label_hash`], then
/// kind, then text bytes (the field order, which the derived ordering
/// follows, so text is compared only when hash and kind tie).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LabelKey<'a> {
    /// [`label_hash`]`(kind, text)`.
    pub hash: u64,
    /// URI or literal, never blank.
    pub kind: LabelKind,
    /// The label's text.
    pub text: &'a str,
}

impl<'a> LabelKey<'a> {
    /// The key of a URI or literal label.
    #[inline]
    pub fn new(kind: LabelKind, text: &'a str) -> Self {
        LabelKey {
            hash: label_hash(kind, text),
            kind,
            text,
        }
    }
}

/// Keys a [`KeyStream`] hands out per batch.
pub const KEY_BATCH: usize = 1024;

/// A stream of labels as [`LabelKey`]s, checked to ascend strictly,
/// read [`KEY_BATCH`] at a time so the walk, the hashing and the order
/// check each run as one tight loop.
pub trait KeyStream<'a> {
    /// Append the next keys, at most [`KEY_BATCH`], to `out`; none at
    /// the end of the stream. The first pair of keys that does not
    /// ascend is `Corrupt`, and so is a malformed entry; an error ends
    /// the stream, and is reported in stream order (a pair out of
    /// order before a malformed entry is reported first).
    fn next_batch(
        &mut self,
        out: &mut Vec<LabelKey<'a>>,
    ) -> Result<(), StoreError>;

    /// A lower bound on the keys still to come, safe to size an
    /// allocation by.
    fn len_hint(&self) -> usize;
}

/// Check that `keys` ascend strictly and follow `prev`, then make
/// their last key the new `prev`.
fn check_ascending<'a>(
    prev: &mut Option<LabelKey<'a>>,
    keys: &[LabelKey<'a>],
) -> Result<(), StoreError> {
    let first_ok = match (prev.as_ref(), keys.first()) {
        (Some(p), Some(k)) => p < k,
        _ => true,
    };
    if !first_ok || keys.windows(2).any(|w| w[0] >= w[1]) {
        return Err(not_ascending());
    }
    if let Some(&last) = keys.last() {
        *prev = Some(last);
    }
    Ok(())
}

#[cold]
fn not_ascending() -> StoreError {
    StoreError::Corrupt(
        "dictionary entries not strictly ascending by (hash, kind, text): \
         repeated or out of order"
            .into(),
    )
}

/// A `DICT` body's entries as a [`KeyStream`]. For a graph store's
/// section ([`DictKeys::section`]) the walk also checks the body's
/// pad-to-8 tail after the last entry, and releases the pages behind
/// its caller: each batch first releases the body before the batch, in
/// [`RELEASE_WINDOW`] steps, since the caller is done with the keys it
/// was handed before (their texts point into those pages). The rest is
/// released when the stream is dropped.
#[derive(Debug)]
pub struct DictKeys<'a> {
    entries: DictEntries<'a>,
    prev: Option<LabelKey<'a>>,
    /// The buffer of a store section: release its pages, check its pad.
    section: Option<&'a StoreBuf>,
    /// Bytes of the body before this offset are released.
    released: usize,
    ended: bool,
}

impl<'a> DictKeys<'a> {
    /// The keys of `entries`.
    pub fn new(entries: DictEntries<'a>) -> Self {
        DictKeys {
            entries,
            prev: None,
            section: None,
            released: 0,
            ended: false,
        }
    }

    /// The keys of a graph store's `DICT` section, walked from the
    /// start of its body, which lies in `buf`.
    pub fn section(entries: DictEntries<'a>, buf: &'a StoreBuf) -> Self {
        let mut keys = DictKeys::new(entries);
        keys.section = Some(buf);
        keys
    }

    /// The end of a section's walk: check the body's tail.
    fn end_section(&mut self) -> Result<(), StoreError> {
        match self.section {
            Some(_) => {
                check_pad8(self.entries.buf, self.entries.pos, "DICT section")
            }
            None => Ok(()),
        }
    }
}

impl Drop for DictKeys<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.section {
            buf.release(&self.entries.buf[self.released..]);
        }
    }
}

impl<'a> KeyStream<'a> for DictKeys<'a> {
    fn next_batch(
        &mut self,
        out: &mut Vec<LabelKey<'a>>,
    ) -> Result<(), StoreError> {
        if self.ended {
            return Ok(());
        }
        // The caller is done with the previous batch, whose texts it
        // may have read: the body before this batch can go.
        let pos = self.entries.pos;
        if let Some(buf) = self.section {
            if pos - self.released >= RELEASE_WINDOW {
                buf.release(&self.entries.buf[self.released..pos]);
                self.released = pos;
            }
        }
        let start = out.len();
        let mut failed = None;
        while out.len() - start < KEY_BATCH {
            match self.entries.next() {
                Some(Ok((kind, text))) => out.push(LabelKey::new(kind, text)),
                Some(Err(e)) => {
                    failed = Some(e);
                    break;
                }
                None => {
                    self.ended = true;
                    break;
                }
            }
        }
        let mut checked = check_ascending(&mut self.prev, &out[start..])
            .and_then(|()| failed.map_or(Ok(()), Err));
        if checked.is_ok() && self.ended {
            checked = self.end_section();
        }
        if checked.is_err() {
            self.ended = true;
        }
        checked
    }

    fn len_hint(&self) -> usize {
        if self.ended {
            0
        } else {
            self.entries.capacity_hint() - 1
        }
    }
}

/// The labels of a vocabulary in a given order (its
/// [`Vocab::hash_order`]) as a [`KeyStream`]: how a parsed text's
/// labels meet a store's in [`merge_labels`].
#[derive(Debug, Clone)]
pub struct VocabKeys<'a> {
    vocab: &'a Vocab,
    ids: std::slice::Iter<'a, LabelId>,
    prev: Option<LabelKey<'a>>,
}

impl<'a> VocabKeys<'a> {
    /// The labels `order` names, in that order; none may be blank.
    pub fn new(vocab: &'a Vocab, order: &'a [LabelId]) -> Self {
        VocabKeys {
            vocab,
            ids: order.iter(),
            prev: None,
        }
    }
}

impl<'a> KeyStream<'a> for VocabKeys<'a> {
    fn next_batch(
        &mut self,
        out: &mut Vec<LabelKey<'a>>,
    ) -> Result<(), StoreError> {
        let start = out.len();
        let vocab = self.vocab;
        out.extend(
            self.ids
                .by_ref()
                .take(KEY_BATCH)
                .map(|&id| LabelKey::new(vocab.kind(id), vocab.text(id))),
        );
        let checked = check_ascending(&mut self.prev, &out[start..]);
        if checked.is_err() {
            self.ids = [].iter();
        }
        checked
    }

    fn len_hint(&self) -> usize {
        self.ids.len()
    }
}

/// The labels of two inputs joined by [`merge_labels`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelMerge {
    /// Per input, the session id of each label of its stream: entry
    /// `k + 1` is the id of the stream's `k`-th label, and entry 0, the
    /// blank label, is [`LabelId::BLANK`]. For a store this is its
    /// dictionary-id → session-id map, and it ascends.
    pub maps: [Vec<LabelId>; 2],
    /// The kind of every session label, by id; entry 0 is the blank
    /// label.
    pub kinds: Vec<LabelKind>,
    /// How many labels both inputs hold.
    pub shared: usize,
}

impl LabelMerge {
    /// Session labels, the blank label included.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the session holds only the blank label.
    pub fn is_empty(&self) -> bool {
        self.kinds.len() <= 1
    }
}

/// A [`merge_labels`] that failed: the input whose stream did (0 or
/// 1), and its error.
#[derive(Debug)]
pub struct MergeError {
    /// The input at fault.
    pub input: usize,
    /// What its stream refused.
    pub error: StoreError,
}

/// Join the labels of two inputs with one streaming merge of their
/// ascending [`KeyStream`]s: a store's `DICT` ([`DictKeys`]), or a
/// parsed text's labels in [`Vocab::hash_order`] ([`VocabKeys`]).
/// Session label ids are the ranks of the merged order, the blank
/// label being 0, so a label both inputs hold gets one id and every map
/// ascends. Keys are compared by hash and kind first; text is compared
/// only when both tie.
///
/// Kinds are kept for every session label. Texts are kept only when
/// `texts` is given: each session label is then interned into it in id
/// order, so a fresh vocabulary comes out with the session's ids.
///
/// The first error of either stream ends the merge, naming its input.
pub fn merge_labels<'a>(
    streams: [&mut dyn KeyStream<'a>; 2],
    texts: Option<&mut Vocab>,
) -> Result<LabelMerge, MergeError> {
    use std::cmp::Ordering::{Greater, Less};
    let hints = [streams[0].len_hint(), streams[1].len_hint()];
    let mut out = Merged {
        maps: hints.map(|n| {
            let mut map = Vec::with_capacity(n + 1);
            map.push(LabelId::BLANK);
            map
        }),
        kinds: Vec::with_capacity(hints[0].max(hints[1]) + 1),
        shared: 0,
        texts,
    };
    out.kinds.push(LabelKind::Blank);
    let mut batches: [Vec<LabelKey<'a>>; 2] =
        [Vec::with_capacity(KEY_BATCH), Vec::with_capacity(KEY_BATCH)];
    let mut at = [0usize; 2];
    loop {
        // Both batches hold keys: the common case, with no refill test.
        while at[0] < batches[0].len() && at[1] < batches[1].len() {
            let (x, y) = (batches[0][at[0]], batches[1][at[1]]);
            let order = x.cmp(&y);
            out.emit(if order == Greater { y } else { x }, order);
            at[0] += usize::from(order != Greater);
            at[1] += usize::from(order != Less);
        }
        let mut live = [false; 2];
        for input in 0..2 {
            if at[input] == batches[input].len() {
                batches[input].clear();
                at[input] = 0;
                streams[input]
                    .next_batch(&mut batches[input])
                    .map_err(|error| MergeError { input, error })?;
            }
            live[input] = !batches[input].is_empty();
        }
        match live {
            [false, false] => break,
            [true, false] => {
                out.emit(batches[0][at[0]], Less);
                at[0] += 1;
            }
            [false, true] => {
                out.emit(batches[1][at[1]], Greater);
                at[1] += 1;
            }
            [true, true] => {}
        }
    }
    Ok(LabelMerge {
        maps: out.maps,
        kinds: out.kinds,
        shared: out.shared,
    })
}

/// What [`merge_labels`] has built so far.
struct Merged<'v> {
    maps: [Vec<LabelId>; 2],
    kinds: Vec<LabelKind>,
    shared: usize,
    texts: Option<&'v mut Vocab>,
}

impl Merged<'_> {
    /// Give `key` the next session id: `order` is how input 0's key
    /// compared with input 1's, so `Less` is input 0's alone,
    /// `Greater` input 1's alone and `Equal` both.
    #[inline]
    fn emit(&mut self, key: LabelKey<'_>, order: std::cmp::Ordering) {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let id = LabelId(
            u32::try_from(self.kinds.len())
                .expect("session exceeds u32 label ids"),
        );
        self.kinds.push(key.kind);
        if let Some(texts) = self.texts.as_deref_mut() {
            let got = texts.intern_hashed(key.kind, key.text, key.hash);
            debug_assert_eq!(got, id, "texts are filled in id order");
        }
        if order != Greater {
            self.maps[0].push(id);
        }
        if order != Less {
            self.maps[1].push(id);
        }
        self.shared += usize::from(order == Equal);
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
    let body = entries.buf.len() - entries.pos;
    let mut keys = DictKeys::new(entries.clone());
    let join = intern_keys(&mut keys, body, vocab)?;
    *entries = keys.entries.clone();
    Ok(join)
}

/// [`intern_entries`] over a key stream, with `body` bytes left to
/// walk as the bound on its text.
pub(crate) fn intern_keys<'a>(
    keys: &mut dyn KeyStream<'a>,
    body: usize,
    vocab: &mut Vocab,
) -> Result<DictJoin, StoreError> {
    let before = vocab.len();
    let labels = keys.len_hint() + 1;
    vocab.reserve(before.max(labels), vocab.text_bytes().max(body));
    let mut map = Vec::with_capacity(labels);
    map.push(LabelId::BLANK);
    let mut batch = Vec::with_capacity(KEY_BATCH);
    loop {
        batch.clear();
        keys.next_batch(&mut batch)?;
        if batch.is_empty() {
            break;
        }
        for key in &batch {
            map.push(vocab.intern_hashed(key.kind, key.text, key.hash));
        }
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
    use crate::container::{Container, ContainerWriter, KIND_ARCHIVE};

    /// The `DICT` body [`write_dict`] puts for `ids`, written through
    /// the container writer and read back.
    fn dict_bytes(vocab: &Vocab, ids: &[LabelId]) -> Vec<u8> {
        let mut w = ContainerWriter::new();
        w.windowed(*b"DICT", |w| write_dict(w, vocab, ids.iter().copied()));
        let mut out = Vec::new();
        w.finish(&mut out, KIND_ARCHIVE, [0; 3]).unwrap();
        Container::parse(&out).unwrap().section(*b"DICT").unwrap().to_vec()
    }

    #[test]
    fn round_trip() {
        let mut vocab = Vocab::new();
        let u = vocab.uri("http://e.org/x");
        let l = vocab.literal("a literal");
        let buf = dict_bytes(&vocab, &[u, l]);
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
        let buf = dict_bytes(&v, &[u, l]);
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
