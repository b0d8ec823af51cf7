//! Synthetic evolving RDF datasets with ground truth.
//!
//! The paper evaluates on three curated datasets we cannot redistribute:
//! EFO releases, GtoPdb releases, and a DBpedia category subset. This
//! crate generates seeded synthetic equivalents that exercise the same
//! code paths and preserve the structural properties the evaluation
//! depends on:
//!
//! * [`efo`] — ontology with blank-node restriction records, >75 %
//!   literals, fluctuating duplicated blanks, URI-prefix migrations;
//! * [`gtopdb`] — relational database evolved over versions and exported
//!   via the W3C Direct Mapping with per-version prefixes and persistent
//!   keys (the ground-truth setting);
//! * [`dbpedia`] — growing category/article graph for scalability runs.

#![warn(missing_docs)]

pub mod dataset;
pub mod dbpedia;
pub mod efo;
pub mod gtopdb;
pub mod words;

pub use dataset::{EvolvingDataset, VersionedGraph};
pub use dbpedia::{generate_dbpedia, DbpediaConfig};
pub use efo::{generate_efo, EfoConfig};
pub use gtopdb::{generate_gtopdb, gtopdb_schema, GtopdbConfig};
