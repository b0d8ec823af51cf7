//! Input resolution for the CLI pipeline: every subcommand that reads a
//! graph goes through here, so `.rdfb` stores and plain N-Triples text
//! are accepted anywhere a store path is accepted — resolved by file
//! *content* (the container magic), never by extension.

use crate::CliError;
use rdf_model::{GraphAppender, LabelId, LabelKind, RdfGraph, Vocab};
use rdf_obs::Recorder;
use rdf_store::borrowed::GraphPart;
use rdf_store::dict::{KeyStream, VocabKeys};
use rdf_store::{BorrowedStoreReader, StoreError};
use std::path::Path;

pub(crate) fn ctx(path: &Path, e: impl std::fmt::Display) -> CliError {
    CliError::new(format!("{}: {e}", path.display()))
}

/// Sniff a file: `.rdfb` containers open with the `RDFB` magic,
/// anything else is treated as N-Triples text.
pub fn is_store(path: &Path) -> Result<bool, CliError> {
    use std::io::Read;
    let mut file = std::fs::File::open(path).map_err(|e| ctx(path, e))?;
    let mut magic = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match file.read(&mut magic[got..]).map_err(|e| ctx(path, e))? {
            0 => return Ok(false),
            n => got += n,
        }
    }
    Ok(magic == rdf_store::MAGIC)
}

/// Open a `.rdfb` store (mapped when possible) with the one reader,
/// with the path baked into any error. `info`, `export`, `align` and
/// the daemon all open their stores here.
pub fn open_any(path: &Path) -> Result<BorrowedStoreReader, CliError> {
    BorrowedStoreReader::open(path).map_err(|e| ctx(path, e))
}

/// One input resolved by its content and opened once: a `.rdfb`
/// store (mapped) or N-Triples text. The daemon hashes an open store
/// before it loads it, so the bytes it keys a session by are the bytes
/// it loads, even if the path is re-imported in between.
pub struct Input<'p> {
    pub(crate) path: &'p Path,
    /// The open store, or `None` for N-Triples text.
    pub(crate) store: Option<BorrowedStoreReader>,
}

impl<'p> Input<'p> {
    /// Sniff `path` and open it: a store is mapped now, text is read
    /// when the input is loaded.
    pub fn open(path: &'p Path) -> Result<Input<'p>, CliError> {
        let store = if is_store(path)? {
            Some(open_any(path)?)
        } else {
            None
        };
        Ok(Input { path, store })
    }

    /// The node and triple counts a store's header declares, each
    /// capped by what the file could hold (a node takes at least one
    /// byte of `NODE`, a triple three of `TRPL`), or `(0, 0)` for text
    /// and for a header that does not parse. Only a reservation reads
    /// them: the load checks the real counts.
    pub fn declared_counts(&self) -> (usize, usize) {
        let Some(bytes) = self.store.as_ref().map(|r| r.buf().as_slice())
        else {
            return (0, 0);
        };
        match rdf_store::Container::parse_header(bytes) {
            Ok(h) => {
                let cap = |count: u64, per: usize| {
                    let most = bytes.len() / per;
                    usize::try_from(count).map_or(most, |c| c.min(most))
                };
                (cap(h.counts[1], 1), cap(h.counts[2], 3))
            }
            Err(_) => (0, 0),
        }
    }

    /// Ready the input for a session load: a store's container is
    /// parsed and checksummed (one `store.open` span), N-Triples text
    /// is parsed into its own vocabulary (text loads are not
    /// instrumented).
    pub(crate) fn part(&self, rec: &Recorder) -> Result<Part<'_>, CliError> {
        Ok(match &self.store {
            Some(reader) => {
                Part::Store(reader.part(rec).map_err(|e| ctx(self.path, e))?)
            }
            None => {
                let mut vocab = Vocab::new();
                let graph = rdf_io::load_file(self.path, &mut vocab)
                    .map_err(|e| ctx(self.path, e))?;
                let order = vocab.hash_order();
                Part::Text {
                    vocab,
                    graph,
                    order,
                }
            }
        })
    }

    /// Load the graph on its own into a vocabulary and release the
    /// input: a store through [`BorrowedStoreReader::read_graph_into`]
    /// (its `DICT` interned into `vocab`, its columns appended to an
    /// empty graph, plus its blank names), text through the parser.
    pub fn load_into(
        self,
        vocab: &mut Vocab,
        rec: &Recorder,
    ) -> Result<RdfGraph, CliError> {
        match &self.store {
            Some(reader) => reader
                .read_graph_into(vocab, rec)
                .map_err(|e| ctx(self.path, e)),
            None => rdf_io::load_file(self.path, vocab)
                .map_err(|e| ctx(self.path, e)),
        }
    }
}

/// One input of a session load, between its label join and its append
/// (see [`crate::Session::load`]).
pub(crate) enum Part<'a> {
    /// A store: its parsed container, its labels walked in place.
    Store(GraphPart<'a>),
    /// N-Triples text parsed into its own vocabulary, with that
    /// vocabulary's labels in hash order.
    Text {
        vocab: Vocab,
        graph: RdfGraph,
        order: Vec<LabelId>,
    },
}

impl Part<'_> {
    /// The labels, as [`merge_labels`](rdf_store::dict::merge_labels)
    /// reads them: every check of a store's `DICT` walk applies, and
    /// its pages are released behind the cursor.
    pub(crate) fn labels(
        &self,
    ) -> Result<Box<dyn KeyStream<'_> + '_>, StoreError> {
        Ok(match self {
            Part::Store(part) => Box::new(part.labels()?),
            Part::Text { vocab, order, .. } => {
                Box::new(VocabKeys::new(vocab, order))
            }
        })
    }

    /// Bytes of label text the input holds at most.
    pub(crate) fn text_bytes(&self) -> usize {
        match self {
            Part::Store(part) => part.dict_bytes(),
            Part::Text { vocab, .. } => vocab.text_bytes(),
        }
    }

    /// Append the graph to `union` as its next part, with each label
    /// replaced by its session id: `ids[k + 1]` is the session id of
    /// the `k`-th label of [`Part::labels`], and `kinds` the kind of
    /// each session id. A store is appended column by column
    /// ([`GraphPart::append_into`]: `store.section` and `store.append`
    /// spans); text through its parsed graph. Returns the graph's node
    /// and triple counts.
    pub(crate) fn append_into(
        &self,
        path: &Path,
        ids: &[LabelId],
        kinds: &[LabelKind],
        union: &mut GraphAppender,
        rec: &Recorder,
    ) -> Result<(usize, usize), CliError> {
        match self {
            Part::Store(part) => part
                .append_into(ids, kinds, union, rec)
                .map_err(|e| ctx(path, e)),
            Part::Text {
                vocab,
                graph,
                order,
            } => {
                let mut map = vec![LabelId::BLANK; vocab.len()];
                for (&local, &id) in order.iter().zip(&ids[1..]) {
                    map[local.index()] = id;
                }
                union.append_relabelled(graph.graph(), &map);
                Ok((graph.node_count(), graph.triple_count()))
            }
        }
    }
}

/// Load either input format (a `.rdfb` store or N-Triples) into the
/// shared session vocabulary.
pub fn load_input(
    path: &Path,
    vocab: &mut Vocab,
) -> Result<RdfGraph, CliError> {
    Input::open(path)?.load_into(vocab, &Recorder::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::RdfGraphBuilder;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rdf-cli-pipeline-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every input shape resolves: a `.rdfb` store and N-Triples text
    /// load to the same graph, and an absent path or a retired
    /// version-1 store is an error naming the path.
    #[test]
    fn open_any_covers_every_input_shape() {
        let dir = tmp("openany");
        let mut vocab = Vocab::new();
        let g = {
            let mut b = RdfGraphBuilder::new(&mut vocab);
            b.uub("ss", "address", "b1");
            b.bul("b1", "zip", "EH8");
            b.finish()
        };
        let store = dir.join("g.rdfb");
        rdf_store::save_graph(&store, &vocab, &g).unwrap();
        let text = dir.join("g.nt");
        rdf_io::save_file(&text, &g, &vocab).unwrap();

        let (_, direct) = open_any(&store).unwrap().read_graph().unwrap();
        assert!(direct.graph().triples().eq(g.graph().triples()));
        let err = open_any(&dir.join("absent.rdfb")).unwrap_err();
        assert!(err.to_string().contains("absent.rdfb"), "got: {err}");
        let v1 = dir.join("v1.rdfb");
        let mut bytes = std::fs::read(&store).unwrap();
        bytes[4] = 1;
        std::fs::write(&v1, bytes).unwrap();
        let err = load_input(&v1, &mut Vocab::new()).unwrap_err();
        assert!(
            err.to_string().contains("v1.rdfb")
                && err.to_string().contains("retired"),
            "got: {err}"
        );

        let mut session = Vocab::new();
        let a = load_input(&store, &mut session).unwrap();
        let b = load_input(&text, &mut session).unwrap();
        assert!(a.graph().triples().eq(b.graph().triples()));
        assert_eq!(a.graph().labels_raw(), b.graph().labels_raw());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
