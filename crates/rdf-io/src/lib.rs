//! N-Triples I/O for the `rdf-model` triple graphs.
//!
//! The evaluation datasets of the paper (EFO, GtoPdb exports, DBpedia
//! subsets) are RDF dumps; this crate provides a from-scratch N-Triples
//! 1.1 parser and serializer so graphs can be loaded from and saved to
//! the interchange format, plus file helpers.
//!
//! Parsing streams: one block of whole lines is resident at a time,
//! UTF-8-validated once and scanned in place, with terms interned
//! straight from the borrowed text (see [`parse_graph_reader`]).
//!
//! ```
//! use rdf_model::Vocab;
//! use rdf_io::{parse_graph, write_graph};
//!
//! let mut vocab = Vocab::new();
//! let g = parse_graph(
//!     "<u:ss> <u:address> _:b1 .\n_:b1 <u:zip> \"EH8\" .\n",
//!     &mut vocab,
//! ).unwrap();
//! assert_eq!(g.triple_count(), 2);
//! let text = write_graph(&g, &vocab);
//! assert!(text.contains("\"EH8\""));
//! ```

#![warn(missing_docs)]

pub mod ntriples;

pub use ntriples::{
    parse_graph, parse_graph_reader, parse_sorted_reader, parse_triples,
    write_graph, ParseError, ReadError,
};

use rdf_model::{RdfGraph, Vocab};
use std::io::Write;
use std::path::Path;

/// Load an N-Triples file into a graph, streaming block by block (the
/// file is never materialised as one `String`).
pub fn load_file(
    path: impl AsRef<Path>,
    vocab: &mut Vocab,
) -> Result<RdfGraph, Box<dyn std::error::Error>> {
    let reader = std::io::BufReader::new(std::fs::File::open(path)?);
    Ok(parse_graph_reader(reader, vocab)?)
}

/// Save a graph to an N-Triples file (buffered).
pub fn save_file(
    path: impl AsRef<Path>,
    graph: &RdfGraph,
    vocab: &Vocab,
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(write_graph(graph, vocab).as_bytes())?;
    w.flush()
}
