//! Structured tracing and metrics for the alignment pipeline.
//!
//! The workspace runs every fixpoint through one engine,
//! [`RefineEngine`], whose *equivalence* to the sequential reference is
//! proven by the bit-identity suites but whose *behavior* (rounds,
//! splits per round, signature vs. canonicalise time, shard and section
//! I/O) would be invisible without tracing. This crate makes that
//! behavior observable without perturbing it:
//!
//! * [`Recorder`] — the instrumentation handle threaded through hot
//!   paths. It is a two-variant enum, not a `&dyn` trait object: the
//!   disabled arm ([`NullRecorder`]) is a unit struct, every operation
//!   starts with a branch on the discriminant, and the compiler deletes
//!   the instrumented arm from monomorphic hot loops. The [`Record`]
//!   trait exists for code that wants to be generic over recorders.
//! * [`SpanGuard`] — a monotonic-clock timed, nestable span. Created by
//!   [`Recorder::span`], annotated with [`SpanGuard::field`], emitted as
//!   one JSONL line when dropped.
//! * counters ([`Recorder::counter`]) and gauges ([`Recorder::gauge`]) —
//!   aggregate-only metrics. They deliberately emit **no** per-update
//!   event lines, so the number of events in a trace depends only on the
//!   structure of the run (rounds, shards, sections), never on the
//!   thread count — that invariant is what lets the test suite assert
//!   event-count determinism across thread counts.
//! * [`JsonlRecorder`] — the enabled recorder: appends one JSON object
//!   per line (see `docs/TRACE_FORMAT.md`) and aggregates everything
//!   into a final [`RunReport`].
//! * [`RunReport`] — per-span-family totals, counter table, gauge table
//!   and core count; renders as JSON (embedded in `BENCH_*.json`) or as
//!   a text table (`rdf stats`).
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

pub use recorder::{
    Counter, FieldValue, Gauge, JsonlRecorder, NullRecorder, Record,
    Recorder, SpanGuard,
};
pub use report::{RunReport, SpanTotal};
