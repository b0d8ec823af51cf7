//! Input resolution for the CLI pipeline: every subcommand that reads a
//! graph goes through here, so `.rdfb` stores and plain N-Triples text
//! are accepted anywhere a store path is accepted — resolved by file
//! *content* (the container magic), never by extension.

use crate::CliError;
use rdf_model::{GraphAppender, RdfGraph, Vocab};
use rdf_obs::Recorder;
use rdf_store::BorrowedStoreReader;
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

    /// Append the graph to `union` as its next part, with its labels
    /// in the session vocabulary, and release the input; returns the
    /// graph's node and triple counts. A store is appended column by
    /// column ([`BorrowedStoreReader::append_into`]) and emits
    /// `store.open`, `store.section` and `store.append` spans into
    /// `rec`. N-Triples text is parsed into a graph, which is appended
    /// and dropped (text loads are not instrumented).
    pub fn append_into(
        self,
        vocab: &mut Vocab,
        union: &mut GraphAppender,
        rec: &Recorder,
    ) -> Result<(usize, usize), CliError> {
        match &self.store {
            Some(reader) => reader
                .append_into(vocab, union, rec)
                .map_err(|e| ctx(self.path, e)),
            None => {
                let parsed = rdf_io::load_file(self.path, vocab)
                    .map_err(|e| ctx(self.path, e))?;
                union.append_graph(parsed.graph());
                Ok((parsed.node_count(), parsed.triple_count()))
            }
        }
    }

    /// Load the graph on its own into the session vocabulary and
    /// release the input: a store through
    /// [`BorrowedStoreReader::read_graph_into`] (the append of
    /// [`Input::append_into`] into an empty graph, plus its blank
    /// names), text through the parser.
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
