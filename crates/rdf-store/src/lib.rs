//! Persistent dictionary-encoded graph store — the `.rdfb` container.
//!
//! The alignment pipeline's inputs are N-Triples dumps that, before this
//! crate, were re-tokenised on every run. Following the I/O-efficient
//! bisimulation literature (Luo et al., Hellings et al.), the enabling
//! step for big-graph work is a compact binary representation that loads
//! without re-parsing: a deduplicated label dictionary plus the CSR
//! triple arrays, varint-delta encoded, each section protected by a
//! CRC-32 so corruption fails loudly.
//!
//! * [`StoreWriter`] / [`save_graph`] — serialise a graph + vocabulary;
//! * [`StoreReader`] / [`load_graph`] — reconstruct them with **zero
//!   per-triple string hashing** (only the dictionary itself is
//!   re-interned, once per distinct label);
//! * [`import_ntriples`] — stream N-Triples from any `BufRead` into a
//!   store without materialising the document;
//! * [`sharded`] — the sharded layout: a `.rdfm` manifest (global
//!   dictionary + shard directory) plus N subject-hash-partitioned
//!   `.rdfb` shard files, loaded concurrently and stitched
//!   bit-identically to the single-file load ([`save_sharded`],
//!   [`ShardedReader`], [`open_any`]);
//! * [`container`] — the generic section framing, reused by
//!   `rdf-archive` for persistent archives.
//!
//! The byte-level layout of every container kind — header, section
//! framing, `DICT`/`NODE`/`TRPL`/`BNAM`/`SHRD` bodies, varint and CRC
//! rules, and the `shard_of` subject hash — is specified normatively
//! in **`docs/FORMAT.md`** at the repository root; module comments
//! here only summarise it.
//!
//! ```
//! use rdf_model::{RdfGraphBuilder, Vocab};
//! use rdf_store::{graph_to_bytes, StoreReader};
//!
//! let mut vocab = Vocab::new();
//! let g = {
//!     let mut b = RdfGraphBuilder::new(&mut vocab);
//!     b.uub("ss", "address", "b1");
//!     b.bul("b1", "zip", "EH8");
//!     b.finish()
//! };
//! let bytes = graph_to_bytes(&vocab, &g).unwrap();
//! let (vocab2, g2) = StoreReader::from_bytes(bytes).read_graph().unwrap();
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
pub mod sharded;
pub mod varint;

pub use borrowed::{BorrowedStoreReader, LoadMode};
pub use container::{
    Container, ContainerWriter, Header, Layout, FORMAT_VERSION,
    FORMAT_VERSION_FIXED, KIND_ARCHIVE, KIND_GRAPH, KIND_MANIFEST,
    KIND_SHARD, MAGIC, MAX_FORMAT_VERSION,
};
pub use error::StoreError;
pub use graph_store::{
    graph_to_bytes, graph_to_bytes_layout, load_graph, save_graph,
    save_graph_layout, StoreInfo, StoreReader, StoreWriter,
};
pub use import::{import_ntriples, import_ntriples_layout, ImportError};
pub use mmap::StoreBuf;
pub use sharded::{
    open_any, save_sharded, save_sharded_layout, shard_of, AnyReader,
    Manifest, ShardEntry, ShardedInfo, ShardedReader, ShardedWriter,
    DEFAULT_SHARD_SEED, TAG_SHRD,
};
