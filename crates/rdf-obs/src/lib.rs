//! Structured tracing and metrics for the alignment pipeline.
//!
//! The workspace runs every fixpoint through one engine,
//! [`RefineEngine`], whose *equivalence* to the sequential reference is
//! proven by the bit-identity suites but whose *behavior* (rounds,
//! splits per round, signature vs. canonicalise time, section I/O)
//! would be invisible without tracing. This crate makes that
//! behavior observable without perturbing it:
//!
//! * [`Recorder`] — the instrumentation handle threaded through hot
//!   paths. It is one concrete type over an optional JSONL sink, not a
//!   `&dyn` trait object: [`Recorder::disabled`] holds `None`, every
//!   operation starts with one branch on it, and the compiler deletes
//!   the instrumented side from monomorphic hot loops. An enabled
//!   recorder ([`Recorder::jsonl_file`], [`Recorder::jsonl_writer`])
//!   appends one JSON object per line (see `docs/TRACE_FORMAT.md`) and
//!   aggregates everything into a final [`RunReport`].
//! * [`SpanGuard`] — a monotonic-clock timed, nestable span. Created by
//!   [`Recorder::span`], annotated with [`SpanGuard::field`], emitted as
//!   one JSONL line when dropped.
//! * counters ([`Recorder::counter`]) and gauges ([`Recorder::gauge`]) —
//!   aggregate-only metrics. They deliberately emit **no** per-update
//!   event lines, so the number of events in a trace depends only on the
//!   structure of the run (rounds, blocks, sections), never on the
//!   thread count — that invariant is what lets the test suite assert
//!   event-count determinism across thread counts.
//! * [`RunReport`] — per-span-family totals, counter table, gauge table
//!   and core count; renders as JSON (the trace's final line) or as a
//!   text table (`rdf stats`).
//! * [`record_rss`] — the process's resident memory as `rss.<at>.*`
//!   gauges, read from `/proc/self/status` where it exists.
//!
//! There is intentionally **no** global or thread-local recorder.
//! Recorders are plain values handed down by the caller (usually as
//! `Arc<Recorder>`), so two engines in one process never share state,
//! tests are isolated for free, and a run's trace is complete exactly
//! when its recorder is finished — determinism and test isolation beat
//! the convenience of a `static`.
//!
//! [`RefineEngine`]: ../rdf_align/struct.RefineEngine.html

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
mod recorder;
mod report;
mod rss;

pub use recorder::{Counter, FieldValue, Gauge, Recorder, SpanGuard};
pub use report::{RunReport, SpanTotal};
pub use rss::{proc_status, record_rss, status_kib};
