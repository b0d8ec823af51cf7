//! Input resolution for the CLI pipeline: every subcommand that reads a
//! graph goes through here, so `.rdfb` stores and plain N-Triples text
//! are accepted anywhere a store path is accepted — resolved by file
//! *content* (the container magic), never by extension.

use crate::CliError;
use rdf_model::{rebase_into, RdfGraph, Vocab};
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

/// Load either input format (a `.rdfb` store or N-Triples) into the
/// shared session vocabulary.
pub fn load_input(
    path: &Path,
    vocab: &mut Vocab,
) -> Result<RdfGraph, CliError> {
    load_input_traced(path, vocab, &Recorder::disabled())
}

/// [`load_input`] with instrumentation: store loads emit `store.open`
/// and `store.section` spans into `rec` (N-Triples text loads are not
/// instrumented). The loaded graph is identical to the untraced load.
pub fn load_input_traced(
    path: &Path,
    vocab: &mut Vocab,
    rec: &Recorder,
) -> Result<RdfGraph, CliError> {
    if is_store(path)? {
        let (store_vocab, graph) = open_any(path)?
            .read_graph_traced(rdf_par::Threads::Auto, rec)
            .map_err(|e| ctx(path, e))?;
        // Re-express the store's dictionary in the session vocabulary:
        // O(|dictionary|) string work, nothing per node or triple.
        Ok(rebase_into(vocab, &store_vocab, &graph))
    } else {
        rdf_io::load_file(path, vocab).map_err(|e| ctx(path, e))
    }
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
