//! Property suite for the direct load: interning a store's `DICT`
//! straight into a session vocabulary
//! ([`BorrowedStoreReader::read_graph_into`]) gives exactly what
//! decoding the store into its own vocabulary and rebasing it
//! ([`rebase_into`]) gives — the same label ids, kinds, triples and
//! blank names, and the same session vocabulary afterwards — whether
//! the session starts empty or already holds labels of another graph.

mod common;

use common::{arb_rdf_graph, load, reader_of, term_triples};
use proptest::prelude::*;
use rdf_model::{rebase_into, LabelId, RdfGraph, Vocab};
use rdf_obs::Recorder;
use rdf_store::graph_to_bytes;

/// Every label of a vocabulary as `(kind, text)`, in id order.
fn labels_of(v: &Vocab) -> Vec<(rdf_model::LabelKind, String)> {
    (0..v.len())
        .map(|i| {
            let id = LabelId(i as u32);
            (v.kind(id), v.text(id).to_owned())
        })
        .collect()
}

/// Join `g`'s store into a copy of `session` both ways and compare.
fn check_join(
    session: &Vocab,
    (vocab, g): (&Vocab, &RdfGraph),
) -> Result<(), String> {
    let store = graph_to_bytes(vocab, g).unwrap();
    let mut direct_session = session.clone();
    let direct = reader_of(&store)
        .read_graph_into(&mut direct_session, &Recorder::disabled())
        .map_err(|e| e.to_string())?;
    let (store_vocab, decoded) = load(&store).map_err(|e| e.to_string())?;
    let mut rebased_session = session.clone();
    let rebased = rebase_into(&mut rebased_session, &store_vocab, &decoded);

    prop_assert_eq!(direct.graph().labels_raw(), rebased.graph().labels_raw());
    prop_assert_eq!(direct.graph().kinds_raw(), rebased.graph().kinds_raw());
    prop_assert!(direct.graph().triples().eq(rebased.graph().triples()));
    prop_assert_eq!(direct.blank_names(), rebased.blank_names());
    prop_assert_eq!(direct_session.len(), rebased_session.len());
    prop_assert_eq!(labels_of(&direct_session), labels_of(&rebased_session));
    // And both are the graph that was written, term for term.
    prop_assert_eq!(
        term_triples(&direct, &direct_session),
        term_triples(g, vocab)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Into an empty session, and into a session pre-populated with
    /// another random graph's labels (the generator's small URI and
    /// literal pools make many of them shared).
    #[test]
    fn read_graph_into_equals_rebase_of_read_graph(
        (vocab, g) in arb_rdf_graph(),
        (other_vocab, _) in arb_rdf_graph(),
    ) {
        check_join(&Vocab::new(), (&vocab, &g))?;
        check_join(&other_vocab, (&vocab, &g))?;
        // The session the store was written from: every label shared.
        check_join(&vocab, (&vocab, &g))?;
    }
}
