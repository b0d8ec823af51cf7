//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation section (§5).
//!
//! * [`figures`] — one function per figure (9–16), returning rendered
//!   text; run them via the `repro` binary:
//!   `cargo run --release -p rdf-bench --bin repro -- all`
//! * [`render`] — plain-text tables / matrices / stacked bars.

#![warn(missing_docs)]

pub mod figures;
pub mod render;
pub mod results;

pub use figures::ReproOptions;
pub use results::BenchRecord;
