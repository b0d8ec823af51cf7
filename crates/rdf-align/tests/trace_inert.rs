//! Instrumentation must be *inert*: an alignment run traced through a
//! JSONL [`rdf_obs::Recorder`] produces bit-identical output (dense
//! colors, §5 metrics, unaligned report) to the same run under the
//! disabled recorder, at every thread count {1, 4} — and the trace
//! itself is structurally deterministic: the per-family span *counts*
//! (never the timings) are identical across thread counts, because only
//! spans emit event lines and spans are keyed by run structure (rounds,
//! sections), not by worker scheduling. Every `refine.round` span
//! carries its phase split (`sig_us`, `canon_us`) at every thread
//! count.

use proptest::prelude::*;
use rdf_align::pipeline::{align_with, align_with_recorder, Method};
use rdf_align::{Recorder, Threads};
use rdf_model::{RdfGraph, RdfGraphBuilder, Vocab};
use rdf_obs::RunReport;
use std::io;
use std::sync::{Arc, Mutex};

/// An in-memory JSONL sink shareable between the recorder (which owns
/// a `Box<dyn Write + Send>`) and the test (which reads it back).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Run one traced alignment, returning the aligned output plus the
/// validated trace aggregate. `RunReport::from_jsonl` re-parses every
/// emitted line (JSON object, `ev` key, `name`/`us` on spans), so a
/// malformed event fails the test here. Every `refine.round` line must
/// carry the round's phase split.
fn traced(
    vocab: &Vocab,
    g1: &RdfGraph,
    g2: &RdfGraph,
    method: Method,
    threads: Threads,
) -> (rdf_align::pipeline::Aligned, RunReport) {
    let buf = SharedBuf::default();
    let rec = Arc::new(Recorder::jsonl_writer(Box::new(buf.clone())));
    let out =
        align_with_recorder(vocab, g1, g2, method, threads, Arc::clone(&rec));
    rec.finish().expect("in-memory sink cannot fail");
    let text = buf.text();
    let rounds = text.lines().filter(|l| {
        l.contains(r#""ev":"span""#) && l.contains(r#""refine.round""#)
    });
    for line in rounds {
        assert!(
            line.contains(r#""sig_us""#) && line.contains(r#""canon_us""#),
            "{threads:?}: refine.round without its phase split: {line}"
        );
    }
    let report = RunReport::from_jsonl(&text)
        .expect("every emitted line is schema-valid JSONL");
    (out, report)
}

/// Span families and their event counts — the structural shape of a
/// trace, with every timing stripped.
fn span_counts(report: &RunReport) -> Vec<(String, u64)> {
    report
        .spans
        .iter()
        .map(|s| (s.name.clone(), s.count))
        .collect()
}

/// A random pair of graph versions sharing a vocabulary (same shape as
/// the parallel-identity suite).
fn arb_versions() -> impl Strategy<Value = (Vocab, RdfGraph, RdfGraph)> {
    (1usize..24, 1usize..24, any::<u64>()).prop_map(|(m1, m2, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut vocab = Vocab::new();
        let build = |vocab: &mut Vocab,
                     triples: usize,
                     next: &mut dyn FnMut() -> u64| {
            let mut b = RdfGraphBuilder::new(vocab);
            for _ in 0..triples {
                let s = format!("s{}", next() % 6);
                let p = format!("p{}", next() % 4);
                let o = format!("o{}", next() % 6);
                match next() % 6 {
                    0 => b.uuu(&s, &p, &o),
                    1 => b.uul(&s, &p, &o),
                    2 => b.uub(&s, &p, &o),
                    3 => b.bul(&s, &p, &o),
                    4 => b.buu(&s, &p, &o),
                    _ => b.bub(&s, &p, &o),
                }
            }
            b.finish()
        };
        let g1 = build(&mut vocab, m1, &mut next);
        let g2 = build(&mut vocab, m2, &mut next);
        (vocab, g1, g2)
    })
}

const THREADS: [usize; 2] = [1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Null vs Jsonl recorder: bit-identical alignment output at every
    /// thread count; and the trace's span counts depend only on the run
    /// structure — never on the thread count.
    #[test]
    fn tracing_is_inert_and_structurally_deterministic(
        (vocab, g1, g2) in arb_versions()
    ) {
        let method = Method::Hybrid;

        // Null vs Jsonl at each thread count, then span counts across
        // thread counts.
        let mut shapes = Vec::new();
        for t in THREADS {
            let base = align_with(
                &vocab, &g1, &g2, method, Threads::Fixed(t));
            let (out, report) =
                traced(&vocab, &g1, &g2, method, Threads::Fixed(t));
            prop_assert_eq!(
                out.partition().colors(), base.partition().colors());
            prop_assert_eq!(out.edges.ratio(), base.edges.ratio());
            prop_assert_eq!(&out.unaligned, &base.unaligned);
            shapes.push(span_counts(&report));
        }
        // Span counts must not depend on thread count.
        prop_assert_eq!(&shapes[0], &shapes[1]);
    }
}
