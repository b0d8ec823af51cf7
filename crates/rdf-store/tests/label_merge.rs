//! Property suite for the session load's label join: one streaming
//! merge of two inputs' hash-ordered label streams
//! ([`merge_labels`]) gives the labels, kinds and per-input maps that
//! interning both inputs' dictionaries into one fresh vocabulary
//! ([`intern_entries`]) gives, up to the relabelling of session ids by
//! merged rank. Each input is a store's `DICT` body or a vocabulary
//! walked in hash order (an N-Triples input), and the label pools hold
//! labels whose hashes tie: a URI and a literal with equal 64-bit
//! hashes, two URIs with equal 64-bit hashes, and two URIs with equal
//! 32-bit tags. A stream that does not ascend is refused.

use proptest::prelude::*;
use rdf_model::{label_hash, LabelId, LabelKind, Vocab};
use rdf_store::dict::{
    intern_entries, merge_labels, DictEntries, DictKeys, KeyStream,
    LabelKey, LabelMerge, MergeError, VocabKeys,
};
use rdf_store::varint::write_varint;
use rdf_store::StoreError;
use std::sync::OnceLock;

type Label = (LabelKind, String);

/// The folded multiply of [`label_hash`].
fn fold(a: u64) -> u64 {
    let p = u128::from(a) * u128::from(0x9e37_79b9_7f4a_7c15u64);
    p as u64 ^ (p >> 64) as u64
}

/// Two distinct 16-byte ASCII URI texts with equal label hashes: the
/// second word of the second text xors the first words' state
/// difference into the first text's second word.
fn equal_hash_uris() -> (String, String) {
    let seed = 16u64 << 8;
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
    let (a1, a2) = (word(b"http://a"), word(b"/label00"));
    let state = fold(seed ^ a1);
    let (b1, d) = (b'0'..=b'z')
        .flat_map(|x| (b'0'..=b'z').map(move |y| [x, y]))
        .map(|[x, y]| [b'h', b't', b't', b'p', b':', b'/', x, y])
        .map(|b1| (word(&b1), fold(seed ^ word(&b1)) ^ state))
        .find(|&(b1, d)| b1 != a1 && d & 0x8080_8080_8080_8080 == 0)
        .expect("an ASCII state difference");
    let text = |w1: u64, w2: u64| {
        let bytes = [w1.to_le_bytes(), w2.to_le_bytes()].concat();
        String::from_utf8(bytes).unwrap()
    };
    (text(a1, a2), text(b1, a2 ^ d))
}

/// Two URIs whose hashes share their top 32 bits (the tag a
/// vocabulary's table keeps) but differ below them, and whose text
/// order is the opposite of their hash order, so a merge that compared
/// only tags before text would put them in the wrong order.
fn equal_tag_uris() -> (String, String) {
    let mut first = std::collections::HashMap::new();
    let hash = |t: &str| label_hash(LabelKind::Uri, t);
    (0u32..)
        .map(|i| format!("http://e.org/{i}"))
        .find_map(|t| {
            let prev = first.insert(hash(&t) >> 32, t.clone())?;
            ((hash(&prev) < hash(&t)) != (prev < t)).then_some((prev, t))
        })
        .unwrap()
}

/// The label pool the dictionaries draw from: short URIs and literals
/// (some with the same text in both kinds) plus every kind of tie.
fn pool() -> &'static [Label] {
    static POOL: OnceLock<Vec<Label>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool: Vec<Label> = Vec::new();
        for i in 0..12 {
            pool.push((LabelKind::Uri, format!("u:{i}")));
            pool.push((LabelKind::Literal, format!("lit {i}")));
        }
        pool.push((LabelKind::Literal, "u:0".into()));
        pool.push((LabelKind::Uri, "lit 0".into()));
        pool.push((LabelKind::Uri, "aaaaaaaabbbbbbbb".into()));
        pool.push((LabelKind::Literal, "`aaaaaaabbbbbbbb".into()));
        let (a, b) = equal_hash_uris();
        let (c, d) = equal_tag_uris();
        for t in [a, b, c, d] {
            pool.push((LabelKind::Uri, t));
        }
        pool
    })
}

/// The keys of `labels` in store order, without repeats.
fn sorted(labels: &[Label]) -> Vec<Label> {
    let mut out = labels.to_vec();
    out.sort_by(|a, b| {
        LabelKey::new(a.0, &a.1).cmp(&LabelKey::new(b.0, &b.1))
    });
    out.dedup();
    out
}

/// A `DICT` body holding `labels` in the given order.
fn dict_body(labels: &[Label]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_varint(&mut buf, labels.len() as u64 + 1);
    for (kind, text) in labels {
        buf.push(if *kind == LabelKind::Uri { 1 } else { 2 });
        write_varint(&mut buf, text.len() as u64);
        buf.extend_from_slice(text.as_bytes());
    }
    buf
}

/// One input: a store's `DICT` body, or a vocabulary that interned the
/// labels in `shuffle` order, as an N-Triples parse would.
enum Side {
    Store(Vec<u8>),
    Text(Vocab, Vec<LabelId>),
}

impl Side {
    fn new(labels: &[Label], text: bool, shuffle: u64) -> Side {
        if !text {
            return Side::Store(dict_body(labels));
        }
        let mut order: Vec<&Label> = labels.iter().collect();
        order.sort_by_key(|(kind, t)| label_hash(*kind, t) ^ shuffle);
        let mut vocab = Vocab::new();
        for (kind, t) in order {
            vocab.intern(*kind, t);
        }
        let ids = vocab.hash_order();
        Side::Text(vocab, ids)
    }

    fn keys(&self) -> Box<dyn KeyStream<'_> + '_> {
        match self {
            Side::Store(body) => {
                Box::new(DictKeys::new(DictEntries::new(body, 0).unwrap()))
            }
            Side::Text(vocab, ids) => Box::new(VocabKeys::new(vocab, ids)),
        }
    }
}

/// Merge two sides, with texts kept or not.
fn merge_with(
    a: &Side,
    b: &Side,
    texts: Option<&mut Vocab>,
) -> Result<LabelMerge, MergeError> {
    let (mut a, mut b) = (a.keys(), b.keys());
    merge_labels([a.as_mut(), b.as_mut()], texts)
}

/// Merge two sides with texts kept.
fn merge(a: &Side, b: &Side) -> Result<(LabelMerge, Vocab), MergeError> {
    let mut texts = Vocab::new();
    let merge = merge_with(a, b, Some(&mut texts))?;
    Ok((merge, texts))
}

/// The merge of two label sets against the hash join of the same
/// dictionaries into one fresh vocabulary.
fn check_merge(
    a: &[Label],
    b: &[Label],
    text: [bool; 2],
    shuffle: u64,
) -> Result<(), String> {
    let (a, b) = (sorted(a), sorted(b));
    let sides = [Side::new(&a, text[0], shuffle), Side::new(&b, text[1], !shuffle)];
    let (merge, texts) = merge(&sides[0], &sides[1]).unwrap();

    let mut reference = Vocab::new();
    let joins = [&a, &b].map(|labels| {
        let body = dict_body(labels);
        let mut entries = DictEntries::new(&body, 0).unwrap();
        intern_entries(&mut entries, &mut reference).unwrap().map
    });

    // The same label set, one session label per reference label.
    prop_assert_eq!(merge.len(), reference.len());
    prop_assert_eq!(texts.len(), reference.len());
    prop_assert_eq!(&merge.kinds[..], texts.kinds());
    // Session ids are the ranks of the merged order.
    let ranks = (1..texts.len() as u32).map(LabelId);
    prop_assert!(texts.hash_order().into_iter().eq(ranks));
    // The maps agree with the hash join's up to one relabelling, the
    // same for both inputs, which is a bijection.
    let mut relabel = vec![None; reference.len()];
    relabel[0] = Some(LabelId::BLANK);
    for (map, join) in merge.maps.iter().zip(&joins) {
        prop_assert_eq!(map.len(), join.len());
        prop_assert!(map.windows(2).all(|w| w[0] < w[1]), "maps ascend");
        for (&id, &r) in map.iter().zip(join) {
            prop_assert_eq!(texts.kind(id), reference.kind(r));
            prop_assert_eq!(texts.text(id), reference.text(r));
            let slot = &mut relabel[r.index()];
            prop_assert!(slot.is_none_or(|s| s == id), "one relabelling");
            *slot = Some(id);
        }
    }
    let mut image: Vec<LabelId> = relabel.iter().map(|s| s.unwrap()).collect();
    image.sort_unstable();
    prop_assert!(image.windows(2).all(|w| w[0] < w[1]), "a bijection");
    let shared = a.iter().filter(|l| b.contains(l)).count();
    prop_assert_eq!(merge.shared, shared);

    // Without texts, the same ids and kinds.
    let bare = merge_with(&sides[0], &sides[1], None).unwrap();
    prop_assert_eq!(&bare, &merge);
    Ok(())
}

/// The pool labels a bit of `mask` selects (the pool has at most 64).
fn subset(mask: u64) -> Vec<Label> {
    let pool = pool();
    assert!(pool.len() <= 64);
    (0..pool.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| pool[i].clone())
        .collect()
}

/// A mask that is empty, full or random, so the empty and full
/// dictionaries come up often.
fn mask() -> impl Strategy<Value = u64> {
    (0u8..8, any::<u64>()).prop_map(|(shape, bits)| match shape {
        0 => 0,
        1 => u64::MAX,
        _ => bits,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random dictionaries of every input mix: a store or a text on
    /// each side.
    #[test]
    fn merge_equals_the_hash_join(
        (a, b) in (mask(), mask()),
        mix in 0u8..4,
        shuffle in any::<u64>(),
    ) {
        let text = [mix & 1 == 1, mix & 2 == 2];
        check_merge(&subset(a), &subset(b), text, shuffle)?;
    }

    /// A stream with two adjacent labels swapped is `Corrupt`, on
    /// either side, whatever the other side holds.
    #[test]
    fn a_stream_out_of_order_is_refused(
        (a, b) in (mask(), mask()),
        at in any::<u64>(),
        first in 0u8..2,
    ) {
        let mut a = sorted(&subset(a | 3));
        let i = (at % (a.len() as u64 - 1)) as usize;
        a.swap(i, i + 1);
        let bad = Side::Store(dict_body(&a));
        let good = Side::Store(dict_body(&sorted(&subset(b))));
        let got = if first == 0 { merge(&bad, &good) } else { merge(&good, &bad) };
        let input = usize::from(first);
        prop_assert!(
            matches!(
                got,
                Err(MergeError { input: i, error: StoreError::Corrupt(ref m) })
                    if i == input && m.contains("ascending")
            ),
            "got {:?}",
            got.map(|(m, _)| m)
        );
    }
}

/// The named shapes: disjoint, identical, empty and one-side-empty
/// dictionaries, and each pair of tied labels alone on both sides.
#[test]
fn named_shapes_merge_like_the_hash_join() {
    let pool = pool();
    let (uris, literals): (Vec<Label>, Vec<Label>) =
        pool.iter().cloned().partition(|(k, _)| *k == LabelKind::Uri);
    let ties = pool.len() - 6..pool.len();
    let shapes: Vec<(Vec<Label>, Vec<Label>)> = vec![
        (uris.clone(), literals.clone()),
        (pool.to_vec(), pool.to_vec()),
        (vec![], vec![]),
        (pool.to_vec(), vec![]),
        (vec![], pool.to_vec()),
        (pool[ties.start..ties.start + 2].to_vec(), pool[ties.clone()].to_vec()),
        (pool[ties.start + 2..ties.start + 4].to_vec(), pool[ties.start + 4..].to_vec()),
    ];
    for (a, b) in &shapes {
        for text in [[false, false], [false, true], [true, false], [true, true]] {
            check_merge(a, b, text, 0x5eed).unwrap();
        }
    }
    // The ties really tie.
    fn key(l: &Label) -> LabelKey<'_> {
        LabelKey::new(l.0, &l.1)
    }
    let t = &pool[ties];
    assert_eq!(key(&t[0]).hash, key(&t[1]).hash);
    assert_eq!(key(&t[2]).hash, key(&t[3]).hash);
    assert_eq!(key(&t[4]).hash >> 32, key(&t[5]).hash >> 32);
    assert_ne!(key(&t[4]).hash, key(&t[5]).hash);
}

/// Streams longer than one batch: the merge matches the hash join
/// across batch boundaries, and a pair out of order that straddles a
/// boundary is refused like any other.
#[test]
fn streams_longer_than_a_batch() {
    use rdf_store::dict::KEY_BATCH;
    let labels: Vec<Label> = (0..KEY_BATCH * 2 + 100)
        .map(|i| (LabelKind::Uri, format!("http://e.org/{i}")))
        .collect();
    let a: Vec<Label> = labels.iter().step_by(3).cloned().collect();
    let b: Vec<Label> = labels.iter().skip(1).step_by(2).cloned().collect();
    for text in [[false, false], [true, false], [false, true]] {
        check_merge(&a, &labels, text, 7).unwrap();
        check_merge(&a, &b, text, 7).unwrap();
    }
    for at in [KEY_BATCH - 1, KEY_BATCH, 2 * KEY_BATCH - 1] {
        let mut swapped = sorted(&labels);
        swapped.swap(at, at + 1);
        let bad = Side::Store(dict_body(&swapped));
        let good = Side::Store(dict_body(&sorted(&a)));
        assert!(
            matches!(
                merge(&good, &bad),
                Err(MergeError { input: 1, error: StoreError::Corrupt(ref m) })
                    if m.contains("ascending")
            ),
            "swap at {at}"
        );
    }
}
