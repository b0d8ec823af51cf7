//! Edit-distance substrates for RDF alignment (§4 of Buneman & Staworko,
//! PVLDB 2016).
//!
//! * [`levenshtein`](mod@levenshtein) — string edit distance, full / normalised;
//! * [`hungarian`](mod@hungarian) — minimum-cost assignment (Kuhn–Munkres, O(n³));
//! * [`algebra`] — the saturating `⊕` operator on `[0, 1]` distances;
//! * [`sigma_edit`] — the quadratic `σ_Edit` node metric the overlap
//!   alignment approximates;
//! * [`flooding`] — the similarity-flooding baseline from related work.

#![warn(missing_docs)]

pub mod algebra;
pub mod flooding;
pub mod hungarian;
pub mod levenshtein;
pub mod sigma_edit;

pub use algebra::{oplus, oplus_sum};
pub use flooding::{Flooding, FloodingConfig};
pub use hungarian::{hungarian, hungarian_rect, Assignment};
pub use levenshtein::{levenshtein, normalized_levenshtein};
pub use sigma_edit::{SigmaEdit, SigmaEditConfig};
