//! Input resolution for the CLI pipeline: every subcommand that reads a
//! graph goes through here, so `.rdfb` stores and plain N-Triples text
//! are accepted anywhere a store path is accepted — resolved by file
//! *content* (the container magic), never by extension.

use crate::CliError;
use rdf_model::{RdfGraph, Vocab};
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
    /// by [`Input::load_into`].
    pub fn open(path: &'p Path) -> Result<Input<'p>, CliError> {
        let store = if is_store(path)? {
            Some(open_any(path)?)
        } else {
            None
        };
        Ok(Input { path, store })
    }

    /// Load the graph into the session vocabulary and release the
    /// input. A store load emits `store.open` and `store.section`
    /// spans into `rec` (N-Triples text loads are not instrumented).
    pub fn load_into(
        self,
        vocab: &mut Vocab,
        rec: &Recorder,
    ) -> Result<RdfGraph, CliError> {
        match &self.store {
            // Intern the mapped dictionary straight into the session
            // vocabulary: one hash per label, nothing per node or
            // triple.
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
        assert_eq!(direct.graph().triples(), g.graph().triples());
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
        assert_eq!(a.graph().triples(), b.graph().triples());
        assert_eq!(a.graph().labels_raw(), b.graph().labels_raw());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
