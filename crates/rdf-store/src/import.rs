//! Streaming N-Triples → store ingest: feed the writer straight from any
//! [`BufRead`] without ever materialising the input document as one
//! `String` (the parser holds one line at a time).

use crate::container::Layout;
use crate::error::StoreError;
use crate::graph_store::StoreWriter;
use rdf_model::{RdfGraph, Vocab};
use std::fmt;
use std::io::{BufRead, Write};

/// Error from [`import_ntriples`]: the input failed to parse/read, or the
/// container failed to write.
#[derive(Debug)]
pub enum ImportError {
    /// Reading or parsing the N-Triples input failed.
    Read(rdf_io::ReadError),
    /// Writing the container failed.
    Store(StoreError),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Read(e) => write!(f, "reading N-Triples: {e}"),
            ImportError::Store(e) => write!(f, "writing store: {e}"),
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Read(e) => Some(e),
            ImportError::Store(e) => Some(e),
        }
    }
}

impl From<rdf_io::ReadError> for ImportError {
    fn from(e: rdf_io::ReadError) -> Self {
        ImportError::Read(e)
    }
}

impl From<StoreError> for ImportError {
    fn from(e: StoreError) -> Self {
        ImportError::Store(e)
    }
}

/// Parse N-Triples from `reader` line by line and write the resulting
/// graph as a container to `out`. Returns the parsed vocabulary and graph
/// so callers can report counts without re-reading the store.
pub fn import_ntriples<R: BufRead, W: Write>(
    reader: R,
    out: W,
) -> Result<(Vocab, RdfGraph), ImportError> {
    let mut vocab = Vocab::new();
    let graph = rdf_io::parse_graph_reader(reader, &mut vocab)?;
    StoreWriter::new(out).write_graph(&vocab, &graph)?;
    Ok((vocab, graph))
}

/// [`import_ntriples`] under an explicit [`Layout`]. Only
/// [`Layout::Fixed`] is written; [`Layout::Varint`] fails up front with
/// [`StoreError::RetiredLayout`], before any input is read. Kept
/// because the benchmark harness calls this signature.
pub fn import_ntriples_layout<R: BufRead, W: Write>(
    reader: R,
    out: W,
    layout: Layout,
) -> Result<(Vocab, RdfGraph), ImportError> {
    match layout {
        Layout::Fixed => import_ntriples(reader, out),
        Layout::Varint => Err(ImportError::Store(StoreError::RetiredLayout {
            version: layout.version(),
        })),
    }
}
