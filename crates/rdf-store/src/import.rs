//! Streaming N-Triples → store ingest: feed the writer straight from any
//! [`BufRead`] without ever materialising the input document as one
//! `String` (the parser holds one block of lines at a time).

use crate::container::Layout;
use crate::error::StoreError;
use crate::graph_store::StoreWriter;
use rdf_model::{RdfGraph, Vocab};
use rdf_obs::Recorder;
use std::fmt;
use std::io::{self, BufRead, Read, Write};

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

/// Parse N-Triples from `reader` block by block and write the resulting
/// graph as a container to `out`. Returns the parsed vocabulary and graph
/// so callers can report counts without re-reading the store.
pub fn import_ntriples<R: BufRead, W: Write>(
    reader: R,
    out: W,
) -> Result<(Vocab, RdfGraph), ImportError> {
    import_ntriples_traced(reader, out, &Recorder::disabled())
}

/// [`import_ntriples`] with instrumentation: one `import.parse` span
/// (parse and intern, which run interleaved; field `bytes_in`) and one
/// `import.write` span (encode, checksum and write; field `bytes_out`).
pub fn import_ntriples_traced<R: BufRead, W: Write>(
    reader: R,
    out: W,
    rec: &Recorder,
) -> Result<(Vocab, RdfGraph), ImportError> {
    let mut vocab = Vocab::new();
    let mut sp = rec.span("import.parse");
    let mut input = Counted::new(reader);
    let graph = rdf_io::parse_graph_reader(&mut input, &mut vocab)?;
    sp.field("bytes_in", input.bytes);
    drop(sp);
    let mut sp = rec.span("import.write");
    let out = StoreWriter::new(Counted::new(out)).write_graph(&vocab, &graph)?;
    sp.field("bytes_out", out.bytes);
    Ok((vocab, graph))
}

/// A reader or writer that counts the bytes passing through it.
struct Counted<T> {
    inner: T,
    bytes: u64,
}

impl<T> Counted<T> {
    fn new(inner: T) -> Self {
        Counted { inner, bytes: 0 }
    }
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl<R: BufRead> BufRead for Counted<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.bytes += n as u64;
        self.inner.consume(n);
    }
}

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
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
