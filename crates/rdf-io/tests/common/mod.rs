//! Shared by the integration tests: a reader that hands out input a few
//! bytes at a time, and the check that streaming through it parses
//! exactly like the in-memory entry point.

use rdf_io::{parse_graph, parse_graph_reader, write_graph, ReadError};
use rdf_model::{LabelId, Vocab};
use std::io::{BufRead, Read};

/// A reader that returns 1–7 bytes per call, the lengths drawn from a
/// seeded xorshift generator, so reads split lines, escapes and
/// multi-byte characters at arbitrary points.
pub struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    /// Bytes of the current chunk not yet consumed.
    avail: usize,
    state: u64,
}

impl<'a> Trickle<'a> {
    pub fn new(data: &'a [u8], seed: u64) -> Self {
        Trickle {
            data,
            pos: 0,
            avail: 0,
            state: seed | 1,
        }
    }

    /// The current chunk, drawing a fresh 1–7 byte length when the last
    /// one is used up.
    fn chunk(&mut self) -> &'a [u8] {
        if self.avail == 0 {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let want = 1 + (self.state % 7) as usize;
            self.avail = want.min(self.data.len() - self.pos);
        }
        &self.data[self.pos..self.pos + self.avail]
    }
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunk();
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Trickle<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        Ok(self.chunk())
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        self.avail -= n;
    }
}

/// Parse `doc` in memory and through a [`Trickle`] reader seeded with
/// `seed`, and assert the two agree exactly: the same canonical output,
/// node and triple counts, per-node label ids and vocabulary, or the
/// same error at the same line, column and byte with the same message.
pub fn assert_streaming_matches(doc: &str, seed: u64) {
    let mut v_mem = Vocab::new();
    let in_memory = parse_graph(doc, &mut v_mem);
    let mut v_read = Vocab::new();
    let streamed = parse_graph_reader(Trickle::new(doc.as_bytes(), seed), &mut v_read);
    match (in_memory, streamed) {
        (Ok(g_mem), Ok(g_read)) => {
            assert_eq!(write_graph(&g_mem, &v_mem), write_graph(&g_read, &v_read));
            assert_eq!(g_mem.node_count(), g_read.node_count());
            assert_eq!(g_mem.triple_count(), g_read.triple_count());
            assert_eq!(g_mem.graph().labels_raw(), g_read.graph().labels_raw());
            assert_eq!(v_mem.len(), v_read.len());
            for id in (0..v_mem.len() as u32).map(LabelId) {
                assert_eq!(v_mem.resolve(id), v_read.resolve(id));
            }
        }
        (Err(e_mem), Err(ReadError::Parse(e_read))) => {
            assert_eq!(e_mem, e_read)
        }
        (mem, read) => panic!(
            "seed {seed}: in-memory {:?} vs streamed {:?}",
            mem.map(|g| g.triple_count()),
            read.map(|g| g.triple_count())
        ),
    }
}
