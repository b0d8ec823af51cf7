//! Streaming N-Triples → store ingest: feed the writer straight from any
//! [`BufRead`] without ever materialising the input document as one
//! `String` (the parser holds one block of lines at a time).
//!
//! The parse ends with the graph's sorted parts
//! ([`rdf_io::parse_sorted_reader`]): node labels, triples sorted and
//! deduplicated in place, and blank names. The writer encodes the store
//! from them a window at a time ([`StoreWriter::write_sorted`]), so the
//! import never lays out the graph's CSR and never holds a whole
//! section. Its peak memory is the parsed vocabulary and parts, plus the
//! writer's dictionary order and one window. An import returns only the
//! graph's counts ([`Imported`]); a caller that wants the graph loads
//! the store.

use crate::container::Layout;
use crate::error::StoreError;
use crate::graph_store::StoreWriter;
use rdf_model::Vocab;
use rdf_obs::{record_rss, Recorder};
use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// What an import wrote: the graph's counts, as `rdf import` reports
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Imported {
    /// Nodes of the graph.
    pub nodes: usize,
    /// Distinct triples of the graph.
    pub triples: usize,
    /// Labels of the parsed vocabulary, the blank label included.
    pub labels: usize,
}

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
/// graph as a container to `out`. Returns the graph's counts.
pub fn import_ntriples<R: BufRead, W: Write>(
    reader: R,
    out: W,
) -> Result<Imported, ImportError> {
    import_ntriples_traced(reader, out, &Recorder::disabled())
}

/// [`import_ntriples`] with instrumentation: one `import.parse` span
/// (parse and intern, which run interleaved, then the triples' sort;
/// field `bytes_in`), the `rss.parse.*` gauges ([`record_rss`]) as it
/// ends, and one `import.write` span (encode, checksum and write; field
/// `bytes_out`).
pub fn import_ntriples_traced<R: BufRead, W: Write>(
    reader: R,
    out: W,
    rec: &Recorder,
) -> Result<Imported, ImportError> {
    let mut vocab = Vocab::new();
    let mut sp = rec.span("import.parse");
    let mut input = Counted::new(reader);
    let mut graph = rdf_io::parse_sorted_reader(&mut input, &mut vocab)?;
    // The store's kinds come from its `DICT`; the writer reads labels.
    graph.kinds = Vec::new();
    sp.field("bytes_in", input.bytes);
    drop(sp);
    record_rss(rec, "parse");
    let mut sp = rec.span("import.write");
    let out = StoreWriter::new(Counted::new(out)).write_sorted(&vocab, &graph)?;
    sp.field("bytes_out", out.bytes);
    Ok(Imported {
        nodes: graph.labels.len(),
        triples: graph.triples.len(),
        labels: vocab.len(),
    })
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
) -> Result<Imported, ImportError> {
    match layout {
        Layout::Fixed => import_ntriples(reader, out),
        Layout::Varint => Err(ImportError::Store(StoreError::RetiredLayout {
            version: layout.version(),
        })),
    }
}
