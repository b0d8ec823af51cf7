//! Property suite for the arena [`Vocab`]: on random intern sequences it
//! agrees with a reference `HashMap<(LabelKind, String), LabelId>` —
//! the same text in both namespaces, empty and non-ASCII texts, and
//! enough distinct labels to grow the table several times. Lookups
//! never intern, `text`/`resolve` round-trip, and a clone is
//! independent of its original. Labels arriving in first-use,
//! ascending-hash or descending-hash order (the table places a label by
//! its hash's top bits, so sorted arrivals are its hard case) intern to
//! the same model, and `hash_order` lists them by `(hash, kind, text)`.

use proptest::prelude::*;
use rdf_model::{label_hash, LabelId, LabelKind, LabelRef, Vocab};
use std::collections::HashMap;

/// Texts that stress equality: empty, prefixes of each other, multi-byte
/// UTF-8, and strings that differ only past an 8-byte hash chunk.
const POOL: &[&str] = &[
    "", "a", "ab", "a\0", "é", "e\u{301}", "😀", "λx.x", "café au lait",
    "http://e.org/", "http://e.org/x", "abcdefgh", "abcdefghi",
    "abcdefgh\0",
];

fn text_of(i: u16) -> String {
    match POOL.get(i as usize) {
        Some(t) => t.to_string(),
        None if i.is_multiple_of(2) => format!("http://e.org/{i}"),
        None => format!("«{i}» ünïcödé"),
    }
}

fn kind_of(k: u8) -> LabelKind {
    if k.is_multiple_of(2) {
        LabelKind::Uri
    } else {
        LabelKind::Literal
    }
}

/// `(op, kind, text)`: op 0–2 interns, op 3 looks up.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8, u16)>> {
    proptest::collection::vec((0u8..4, 0u8..2, 0u16..600), 0..700)
}

fn find(v: &Vocab, kind: LabelKind, text: &str) -> Option<LabelId> {
    match kind {
        LabelKind::Uri => v.find_uri(text),
        _ => v.find_literal(text),
    }
}

/// Intern one `(kind, text)` draw, recording it in `by_id` when new.
fn intern(v: &mut Vocab, by_id: &mut Vec<(LabelKind, String)>, k: u8, t: u16) {
    let (kind, text) = (kind_of(k), text_of(t));
    let before = v.len();
    if v.intern(kind, &text).index() == before {
        by_id.push((kind, text));
    }
}

/// Every label of `v` resolves to the reference's kind and text.
fn check_all(
    v: &Vocab,
    by_id: &[(LabelKind, String)],
) -> Result<(), String> {
    prop_assert_eq!(v.len(), by_id.len());
    for (i, (kind, text)) in by_id.iter().enumerate() {
        let id = LabelId(i as u32);
        prop_assert_eq!(v.kind(id), *kind);
        prop_assert_eq!(v.text(id), text.as_str());
        let expected = match kind {
            LabelKind::Uri => LabelRef::Uri(text),
            LabelKind::Literal => LabelRef::Literal(text),
            LabelKind::Blank => LabelRef::Blank,
        };
        prop_assert_eq!(v.resolve(id), expected);
        if *kind != LabelKind::Blank {
            prop_assert_eq!(find(v, *kind, text), Some(id));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interning and lookup agree with the reference map at every step.
    #[test]
    fn arena_matches_reference_map(ops in arb_ops()) {
        let mut v = Vocab::new();
        let mut reference: HashMap<(LabelKind, String), LabelId> =
            HashMap::new();
        let mut by_id = vec![(LabelKind::Blank, String::new())];
        for &(op, k, t) in &ops {
            let (kind, text) = (kind_of(k), text_of(t));
            let key = (kind, text.clone());
            if op == 3 {
                let len = v.len();
                prop_assert_eq!(
                    find(&v, kind, &text),
                    reference.get(&key).copied()
                );
                prop_assert!(v.len() == len, "find must not intern");
                continue;
            }
            let id = match kind {
                LabelKind::Uri => v.uri(&text),
                _ => v.literal(&text),
            };
            let next = LabelId(by_id.len() as u32);
            let want = *reference.entry(key).or_insert(next);
            if want == next {
                by_id.push((kind, text));
            }
            prop_assert_eq!(id, want);
            prop_assert_eq!(v.intern(kind, &by_id[id.index()].1), id);
        }
        check_all(&v, &by_id)?;
    }

    /// A clone answers for the labels it held when cloned, whatever
    /// either side interns afterwards.
    #[test]
    fn clone_is_independent(ops in arb_ops(), split in 0usize..700) {
        let mut original = Vocab::new();
        let mut by_id = vec![(LabelKind::Blank, String::new())];
        let split = split.min(ops.len());
        for &(_, k, t) in &ops[..split] {
            intern(&mut original, &mut by_id, k, t);
        }
        let mut copy = original.clone();
        let mut copy_ids = by_id.clone();
        for &(_, k, t) in &ops[split..] {
            intern(&mut original, &mut by_id, k, t);
        }
        check_all(&copy, &copy_ids)?;
        // The copy grows on its own, from where it was cloned.
        for i in 0..40u16 {
            intern(&mut copy, &mut copy_ids, (i % 2) as u8, 1000 + i);
        }
        check_all(&copy, &copy_ids)?;
        check_all(&original, &by_id)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Distinct labels interned in first-use, ascending-hash or
    /// descending-hash order (each interned twice) get dense ids in
    /// arrival order, and `find`, `text` and `resolve` agree with the
    /// reference map; labels never interned are not found. Reserving
    /// first changes nothing. `hash_order` holds every label once,
    /// strictly ascending by `(label_hash, kind, text)`.
    #[test]
    fn every_arrival_order_matches_reference_map(
        draws in proptest::collection::vec((0u8..2, 0u16..4000), 0..1500),
        order in 0u8..3,
        reserve in 0u8..2,
    ) {
        let key = |(kind, text): &(LabelKind, String)| {
            (label_hash(*kind, text), *kind, text.clone())
        };
        let mut seen = std::collections::HashSet::new();
        let mut labels: Vec<(LabelKind, String)> = draws
            .iter()
            .map(|&(k, t)| (kind_of(k), text_of(t)))
            .filter(|label| seen.insert(label.clone()))
            .collect();
        match order {
            1 => labels.sort_by_key(key),
            2 => labels.sort_by_key(|l| std::cmp::Reverse(key(l))),
            _ => {}
        }
        let mut v = Vocab::new();
        if reserve == 1 {
            let bytes = labels.iter().map(|(_, t)| t.len()).sum();
            v.reserve(labels.len() + 1, bytes);
        }
        let mut by_id = vec![(LabelKind::Blank, String::new())];
        for (kind, text) in &labels {
            let id = v.intern(*kind, text);
            prop_assert_eq!(id, LabelId(by_id.len() as u32));
            by_id.push((*kind, text.clone()));
            prop_assert_eq!(v.intern(*kind, text), id);
        }
        check_all(&v, &by_id)?;
        for t in 4000u16..4020 {
            prop_assert_eq!(find(&v, LabelKind::Uri, &text_of(t)), None);
        }
        let order = v.hash_order();
        prop_assert_eq!(order.len(), labels.len());
        let keys: Vec<_> = order
            .iter()
            .map(|&id| key(&(v.kind(id), v.text(id).to_string())))
            .collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}

/// The blank kind interns to the reserved id and never adds a label.
#[test]
fn blank_kind_interns_to_the_reserved_id() {
    let mut v = Vocab::new();
    assert_eq!(v.intern(LabelKind::Blank, "ignored"), LabelId::BLANK);
    assert_eq!(v.len(), 1);
    assert_eq!(v.text(LabelId::BLANK), "");
    assert_eq!(v.find_uri(""), None);
    let empty = v.uri("");
    assert_ne!(empty, LabelId::BLANK);
    assert_eq!(v.text(empty), "");
    assert_ne!(v.literal(""), empty);
}
