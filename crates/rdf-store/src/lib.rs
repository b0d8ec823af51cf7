//! Persistent dictionary-encoded graph store — the `.rdfb` container.
//!
//! The alignment pipeline's inputs are N-Triples dumps that, before this
//! crate, were re-tokenised on every run. Following the I/O-efficient
//! bisimulation literature (Luo et al., Hellings et al.), the enabling
//! step for big-graph work is a compact binary representation that loads
//! without re-parsing: a deduplicated label dictionary plus fixed-width
//! integer id columns that read without decoding, each section
//! protected by a CRC-32 so corruption fails loudly.
//!
//! * [`StoreWriter`] / [`save_graph`] / [`graph_to_bytes`] — serialise
//!   a graph + vocabulary, one window of one section at a time
//!   ([`ContainerWriter`]);
//! * [`BorrowedStoreReader`] — the one reader: `info`, a zero-copy
//!   view whose id columns borrow straight from the mapped file, and
//!   an owned `(Vocab, RdfGraph)` decode ([`load_graph`]) with **zero
//!   per-triple string hashing**;
//! * [`import_ntriples`] — stream N-Triples from any `BufRead` into a
//!   store without materialising the document (one block of lines is
//!   resident at a time) or laying out the graph's CSR, returning the
//!   graph's counts ([`Imported`]);
//! * [`container`] — the generic section framing, reused by
//!   `rdf-archive` for persistent archives.
//!
//! A graph store is always one `.rdfb` file in the fixed-width layout
//! with its dictionary in label-hash order (container version 3).
//! Version-1 graph stores (the retired varint layout) and version-2
//! ones (a dictionary in first-use order) are refused with
//! [`StoreError::RetiredLayout`]; archives stay version 1.
//!
//! The byte-level layout of every container kind — header, section
//! framing, `DICT`/`NODE`/`TRPL`/`BNAM` bodies, varint and CRC rules —
//! is specified normatively in **`docs/FORMAT.md`** at the repository
//! root; module comments here only summarise it.
//!
//! ```
//! use rdf_model::{RdfGraphBuilder, Vocab};
//! use rdf_store::{graph_to_bytes, BorrowedStoreReader, StoreBuf};
//!
//! let mut vocab = Vocab::new();
//! let g = {
//!     let mut b = RdfGraphBuilder::new(&mut vocab);
//!     b.uub("ss", "address", "b1");
//!     b.bul("b1", "zip", "EH8");
//!     b.finish()
//! };
//! let bytes = graph_to_bytes(&vocab, &g).unwrap();
//! let reader = BorrowedStoreReader::from_buf(StoreBuf::from_bytes(&bytes));
//! let (vocab2, g2) = reader.read_graph().unwrap();
//! assert_eq!(g2.triple_count(), g.triple_count());
//! assert_eq!(vocab2.find_uri("address").is_some(), true);
//! ```

#![deny(missing_docs)]

pub mod borrowed;
pub mod checksum;
pub mod container;
pub mod dict;
pub mod error;
pub mod fixed;
pub mod graph_store;
pub mod import;
pub mod mmap;
pub mod varint;

pub use borrowed::{BorrowedStoreReader, LoadMode, StoreInfo};
pub use container::{
    Container, ContainerWriter, Header, Layout, FORMAT_VERSION,
    FORMAT_VERSION_FIXED, KIND_ARCHIVE, KIND_GRAPH, MAGIC,
    MAX_FORMAT_VERSION, RETIRED_KINDS,
};
pub use error::StoreError;
pub use graph_store::{graph_to_bytes, load_graph, save_graph, StoreWriter};
pub use import::{
    import_ntriples, import_ntriples_layout, import_ntriples_traced, ImportError,
    Imported,
};
pub use mmap::StoreBuf;
