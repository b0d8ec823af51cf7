//! The `rdf serve` daemon: alignment-as-a-service over a unix or tcp
//! socket.
//!
//! One-shot CLI invocations pay a full store load and engine setup per
//! request; this loop keeps both resident. The moving parts:
//!
//! * a line-delimited JSON protocol (types in the `rdf-serve` crate —
//!   `docs/PROTOCOL.md` is normative);
//! * an LRU **store cache** keyed by content hash: graph stores are
//!   decoded once and served to every request; eviction is
//!   least-recently-used by resident bytes;
//! * a persistent [`rdf_par::WorkerPool`] handling connections, so
//!   steady-state request handling never calls `thread::spawn`;
//! * per-request [`Recorder`]s, so traces stay isolated per client and
//!   can be returned in the response (`"trace":true`).
//!
//! Responses reuse the one-shot report renderers ([`crate::info_traced`],
//! [`crate::AlignOutcome::render`]) — there is no second rendering
//! path, which is what makes the byte-identity contract hold by
//! construction.

use crate::pipeline::{ctx, is_store, load_input_traced, open_any};
use crate::signals;
use crate::{AlignOutcome, CliError};
use rdf_align::pipeline::align_with_recorder;
use rdf_align::Threads;
use rdf_model::{rebase_into, RdfGraph, Vocab};
use rdf_obs::Recorder;
use rdf_par::WorkerPool;
use rdf_serve::{ErrorKind, Request, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default cache budget: 256 MiB of resident store bytes.
pub const DEFAULT_CACHE_BYTES: u64 = 256 * 1024 * 1024;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketSpec {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A tcp listener on this `HOST:PORT` address.
    Tcp(String),
}

impl SocketSpec {
    /// `tcp:HOST:PORT` is tcp; anything else is a unix socket path.
    pub fn parse(s: &str) -> SocketSpec {
        match s.strip_prefix("tcp:") {
            Some(addr) => SocketSpec::Tcp(addr.to_string()),
            None => SocketSpec::Unix(PathBuf::from(s)),
        }
    }
}

impl std::fmt::Display for SocketSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketSpec::Unix(p) => write!(f, "unix:{}", p.display()),
            SocketSpec::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// One decoded store, shared by every request that hits its key.
#[derive(Debug)]
struct CachedStore {
    vocab: Vocab,
    graph: RdfGraph,
}

#[derive(Debug)]
struct CacheEntry {
    key: u64,
    /// File bytes — the eviction currency. The decoded columns cost a
    /// small multiple of this; file size is the stable, cheap proxy.
    resident: u64,
    /// Last-touched tick for LRU ordering.
    tick: u64,
    store: Arc<CachedStore>,
}

/// LRU store cache with a resident-byte budget (see `docs/PROTOCOL.md`
/// §cache). The budget is strict: inserting may evict everything,
/// including the entry just inserted (requests still hold their `Arc`,
/// so nothing is freed under them).
#[derive(Debug)]
struct StoreCache {
    budget: u64,
    tick: u64,
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl StoreCache {
    fn new(budget: u64) -> StoreCache {
        StoreCache {
            budget,
            tick: 0,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn resident(&self) -> u64 {
        self.entries.iter().map(|e| e.resident).sum()
    }

    fn get(&mut self, key: u64) -> Option<Arc<CachedStore>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.iter_mut().find(|e| e.key == key) {
            Some(e) => {
                e.tick = tick;
                self.hits += 1;
                Some(Arc::clone(&e.store))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u64, resident: u64, store: Arc<CachedStore>) {
        self.tick += 1;
        self.entries.push(CacheEntry {
            key,
            resident,
            tick: self.tick,
            store,
        });
        // Evict the least recently used entry until the budget holds.
        while self.resident() > self.budget && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.tick)
                .map(|(i, _)| i)
                .expect("entries is non-empty");
            self.entries.swap_remove(victim);
            self.evictions += 1;
        }
    }
}

/// Everything a request handler needs, shared across connections.
pub struct ServeState {
    started: Instant,
    default_threads: Threads,
    workers: usize,
    cache: Mutex<StoreCache>,
    requests: AtomicU64,
    errors: AtomicU64,
}

impl ServeState {
    /// Fresh state with the given cache budget.
    pub fn new(
        default_threads: Threads,
        workers: usize,
        cache_bytes: u64,
    ) -> ServeState {
        ServeState {
            started: Instant::now(),
            default_threads,
            workers,
            cache: Mutex::new(StoreCache::new(cache_bytes)),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// Per-request thread budget: the request's `threads` field wins
    /// over the server default.
    fn threads_for(&self, req: Option<usize>) -> Threads {
        match req {
            Some(n) => Threads::Fixed(n),
            None => self.default_threads,
        }
    }

    /// Load one `align` input, through the cache when it is a store.
    /// Returns the graph rebased into the request's session vocabulary
    /// plus whether it was served warm.
    ///
    /// Cached loads replay the exact one-shot pipeline
    /// ([`load_input_traced`]: decode → `rebase_into`), just with the
    /// decode memoised — so reports stay byte-identical, and a warm hit
    /// emits **no** `store.open` span (nothing is opened).
    fn load_cached(
        &self,
        path: &Path,
        session: &mut Vocab,
        rec: &Recorder,
    ) -> Result<(RdfGraph, bool), CliError> {
        if !is_store(path)? {
            // N-Triples text: uncached (cheap relative to stores, and
            // keeping it out preserves the parse-order contract).
            return load_input_traced(path, session, rec).map(|g| (g, false));
        }
        let reader = open_any(path)?;
        let bytes = reader.buf().as_slice();
        // A bad header (a retired kind or layout) fails before the
        // cache counts a lookup.
        rdf_store::Container::parse_header(bytes)
            .map_err(|e| ctx(path, e))?;
        let key = fnv1a(bytes);
        let resident = bytes.len() as u64;
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(store) = cache.get(key) {
            return Ok((
                rebase_into(session, &store.vocab, &store.graph),
                true,
            ));
        }
        // Miss: decode under the lock so concurrent requests for the
        // same store pay one decode, not N.
        let (vocab, graph) = reader
            .read_graph_traced(Threads::Auto, rec)
            .map_err(|e| ctx(path, e))?;
        drop(reader);
        let store = Arc::new(CachedStore { vocab, graph });
        cache.insert(key, resident, Arc::clone(&store));
        Ok((rebase_into(session, &store.vocab, &store.graph), false))
    }

    /// Render the `stats` report.
    fn stats_text(&self) -> String {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        format!(
            "rdf serve stats\n\
             \x20 uptime_s {}\n\
             \x20 requests {} errors {}\n\
             \x20 workers {}\n\
             \x20 cache entries {} resident {} budget {}\n\
             \x20 cache hits {} misses {} evictions {}\n",
            self.started.elapsed().as_secs(),
            self.requests.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.workers,
            cache.entries.len(),
            cache.resident(),
            cache.budget,
            cache.hits,
            cache.misses,
            cache.evictions,
        )
    }
}

/// FNV-1a 64 over the file bytes: the cache key. Content-addressed, so
/// re-imports of identical data hit and rewritten files miss — no
/// mtime races.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A `Vec<u8>` sink shared with the recorder, so a request's JSONL
/// trace can be read back and returned in its response.
#[derive(Clone, Default)]
struct TraceBuf(Arc<Mutex<Vec<u8>>>);

impl Write for TraceBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl TraceBuf {
    fn take(&self) -> String {
        let bytes = std::mem::take(
            &mut *self.0.lock().unwrap_or_else(|e| e.into_inner()),
        );
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Handle one parsed request, producing exactly one response. Panics
/// in a handler are caught and answered as [`ErrorKind::Internal`] —
/// one poisoned request must not take the connection (or the server)
/// down.
pub fn handle_request(state: &Arc<ServeState>, req: Request) -> Response {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let state2 = Arc::clone(state);
    let resp = catch_unwind(AssertUnwindSafe(move || {
        dispatch(&state2, req)
    }))
    .unwrap_or_else(|_| {
        Response::error(ErrorKind::Internal, "request handler panicked")
    });
    if matches!(resp, Response::Err { .. }) {
        state.errors.fetch_add(1, Ordering::Relaxed);
    }
    resp
}

fn dispatch(state: &Arc<ServeState>, req: Request) -> Response {
    if matches!(
        &req,
        Request::Info { streaming: true, .. }
            | Request::Align { streaming: true, .. }
    ) {
        return return_bad_request(
            "streaming was removed: refinement always runs in memory; \
             drop the \"streaming\" field"
                .to_string(),
        );
    }
    let op = req.op().to_string();
    let want_trace = matches!(
        &req,
        Request::Import { trace: true, .. }
            | Request::Info { trace: true, .. }
            | Request::Align { trace: true, .. }
    );
    let buf = TraceBuf::default();
    let rec = if want_trace {
        Arc::new(Recorder::jsonl_writer(Box::new(buf.clone())))
    } else {
        Arc::new(Recorder::disabled())
    };

    let result: Result<(String, bool), CliError> = match req {
        Request::Import {
            input,
            output,
            layout,
            threads: _,
            trace: _,
        } => {
            if let Some(Err(e)) = layout.as_deref().map(crate::check_layout) {
                return return_bad_request(e.to_string());
            }
            crate::import_traced(Path::new(&input), Path::new(&output), &rec)
                .map(|report| (report, false))
        }
        Request::Info {
            path,
            bisim,
            streaming: _,
            threads,
            trace: _,
        } => {
            // `info` validates the on-disk bytes by contract (the
            // report says "checksums OK"), so it never reads from the
            // cache — it is the cache-bypass readback.
            let threads = state.threads_for(threads);
            crate::info_traced(
                Path::new(&path),
                bisim.then_some(threads),
                &rec,
            )
            .map(|report| (report, false))
        }
        Request::Align {
            source,
            target,
            method,
            theta,
            streaming: _,
            threads,
            trace: _,
        } => align_cached(
            state,
            &source,
            &target,
            &method,
            theta,
            state.threads_for(threads),
            &rec,
        ),
        Request::Stats => Ok((state.stats_text(), false)),
    };

    match result {
        Ok((report, cached)) => {
            let trace = if want_trace {
                let _ = rec.finish();
                Some(buf.take())
            } else {
                None
            };
            Response::Ok {
                op,
                report,
                cached,
                trace,
            }
        }
        Err(e) => Response::error(ErrorKind::Engine, e),
    }
}

/// Helper: build the bad-request response used by dispatch's request
/// validation (kept out of line so the match stays readable).
fn return_bad_request(msg: String) -> Response {
    Response::error(ErrorKind::BadRequest, msg)
}

/// [`crate::align_traced`] with cached store loads: same session-vocab
/// construction, same pipeline, same renderer — the report is
/// byte-identical to the one-shot CLI's. `cached` is true only when
/// *every* store input came from the cache.
fn align_cached(
    state: &ServeState,
    source: &str,
    target: &str,
    method_name: &str,
    theta: Option<f64>,
    threads: Threads,
    rec: &Arc<Recorder>,
) -> Result<(String, bool), CliError> {
    let method = crate::parse_method(method_name, theta)?;
    let source = Path::new(source);
    let target = Path::new(target);
    let mut vocab = Vocab::new();
    let (g1, warm1) = state.load_cached(source, &mut vocab, rec)?;
    let (g2, warm2) = state.load_cached(target, &mut vocab, rec)?;
    let aligned =
        align_with_recorder(&vocab, &g1, &g2, method, threads, Arc::clone(rec));
    let outcome = AlignOutcome {
        method: method_name.to_string(),
        source: (
            source.display().to_string(),
            g1.node_count(),
            g1.triple_count(),
        ),
        target: (
            target.display().to_string(),
            g2.node_count(),
            g2.triple_count(),
        ),
        aligned,
    };
    Ok((outcome.render(), warm1 && warm2))
}

/// Serve one connection: read request lines, answer each with exactly
/// one response line. Malformed lines get a typed `bad_request` error;
/// the connection always stays open until the client closes it.
fn handle_conn<S: Read + Write>(stream: S, state: Arc<ServeState>) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let resp = match Request::parse(&line) {
            Ok(req) => handle_request(&state, req),
            Err(e) => {
                state.errors.fetch_add(1, Ordering::Relaxed);
                Response::error(ErrorKind::BadRequest, e)
            }
        };
        let out = resp.to_line();
        let s = reader.get_mut();
        if s.write_all(out.as_bytes()).is_err()
            || s.write_all(b"\n").is_err()
            || s.flush().is_err()
        {
            break;
        }
    }
}

/// Run the daemon until SIGTERM/SIGINT. Returns the shutdown report
/// line (printed by `main` after a clean exit).
pub fn serve(
    socket: &str,
    threads: Threads,
    cache_bytes: u64,
) -> Result<String, CliError> {
    let spec = SocketSpec::parse(socket);
    // Block the termination signals *before* spawning the pool, so
    // every worker inherits the mask and SIGTERM only ever surfaces on
    // the signalfd.
    let sig = match signals::setup() {
        Some(Ok(sig)) => Some(sig),
        Some(Err(e)) => {
            return Err(CliError::new(format!("signalfd: {e}")))
        }
        None => None,
    };
    let workers = threads.resolve().max(2);
    let pool = WorkerPool::new(Threads::Fixed(workers));
    let state =
        Arc::new(ServeState::new(threads, workers, cache_bytes));

    match &spec {
        SocketSpec::Unix(path) => {
            // A stale socket file from a previous run would make bind
            // fail; remove it (a live server would still conflict at
            // connect time, which is the error we want).
            let _ = std::fs::remove_file(path);
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| ctx(path, e))?;
            announce(&spec, workers, cache_bytes);
            let served = accept_loop(
                &listener,
                sig,
                &pool,
                &state,
                |l| l.accept().map(|(s, _)| s),
            )?;
            let _ = std::fs::remove_file(path);
            drop(listener);
            drop(pool); // joins workers: in-flight requests finish
            Ok(shutdown_line(served, &state))
        }
        SocketSpec::Tcp(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| CliError::new(format!("{addr}: {e}")))?;
            announce(&spec, workers, cache_bytes);
            let served = accept_loop(
                &listener,
                sig,
                &pool,
                &state,
                |l| l.accept().map(|(s, _)| s),
            )?;
            drop(listener);
            drop(pool);
            Ok(shutdown_line(served, &state))
        }
    }
}

/// Print the readiness line eagerly (clients and CI wait for it).
fn announce(spec: &SocketSpec, workers: usize, cache_bytes: u64) {
    println!(
        "rdf serve: listening on {spec} ({workers} workers, cache \
         budget {cache_bytes} bytes)"
    );
    let _ = std::io::stdout().flush();
}

fn shutdown_line(signo: u32, state: &ServeState) -> String {
    format!(
        "rdf serve: shutdown on signal {signo} ({} requests served)\n",
        state.requests.load(Ordering::Relaxed),
    )
}

/// The accept loop, generic over the listener flavour. Returns the
/// signal number that ended it.
fn accept_loop<L, S, A>(
    listener: &L,
    sig: Option<signals::SignalFd>,
    pool: &WorkerPool,
    state: &Arc<ServeState>,
    accept: A,
) -> Result<u32, CliError>
where
    L: NonBlocking + RawFdLike,
    S: Read + Write + Send + 'static,
    A: Fn(&L) -> std::io::Result<S>,
{
    match sig {
        Some(sig) => {
            listener
                .set_nonblocking(true)
                .map_err(|e| CliError::new(format!("listener: {e}")))?;
            loop {
                match signals::wait(listener.raw_fd(), &sig)
                    .map_err(|e| CliError::new(format!("ppoll: {e}")))?
                {
                    signals::Wake::Signal(signo) => return Ok(signo),
                    signals::Wake::Connection => match accept(listener) {
                        Ok(stream) => {
                            let state = Arc::clone(state);
                            pool.submit(move || {
                                handle_conn(stream, state)
                            });
                        }
                        Err(e)
                            if e.kind()
                                == std::io::ErrorKind::WouldBlock =>
                        {
                            continue
                        }
                        Err(e) => {
                            return Err(CliError::new(format!(
                                "accept: {e}"
                            )))
                        }
                    },
                }
            }
        }
        None => {
            // No signalfd on this platform: serve until killed.
            loop {
                match accept(listener) {
                    Ok(stream) => {
                        let state = Arc::clone(state);
                        pool.submit(move || handle_conn(stream, state));
                    }
                    Err(e) => {
                        return Err(CliError::new(format!(
                            "accept: {e}"
                        )))
                    }
                }
            }
        }
    }
}

/// The two listener capabilities the accept loop needs, abstracted so
/// unix and tcp share one loop.
trait NonBlocking {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()>;
}

trait RawFdLike {
    fn raw_fd(&self) -> i32;
}

impl NonBlocking for std::os::unix::net::UnixListener {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        std::os::unix::net::UnixListener::set_nonblocking(self, nb)
    }
}

impl NonBlocking for std::net::TcpListener {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        std::net::TcpListener::set_nonblocking(self, nb)
    }
}

impl RawFdLike for std::os::unix::net::UnixListener {
    fn raw_fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.as_raw_fd()
    }
}

impl RawFdLike for std::net::TcpListener {
    fn raw_fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.as_raw_fd()
    }
}

/// The `rdf request` client: send one request line, print the report.
///
/// Connects to `socket` (same `tcp:` syntax as `serve`), writes `line`
/// plus a newline, reads exactly one response line and returns the
/// report text — which is byte-identical to the matching one-shot
/// command's stdout. With `trace_out`, the response's trace (requires
/// `"trace":true` in the request) is written to that path. A protocol
/// error response becomes a [`CliError`] naming the error kind.
pub fn request(
    socket: &str,
    line: &str,
    trace_out: Option<&Path>,
) -> Result<String, CliError> {
    let reply = match SocketSpec::parse(socket) {
        SocketSpec::Unix(path) => {
            let stream = std::os::unix::net::UnixStream::connect(&path)
                .map_err(|e| ctx(&path, e))?;
            roundtrip(stream, line)?
        }
        SocketSpec::Tcp(addr) => {
            let stream = std::net::TcpStream::connect(&addr)
                .map_err(|e| CliError::new(format!("{addr}: {e}")))?;
            roundtrip(stream, line)?
        }
    };
    let resp = Response::parse(&reply)
        .map_err(|e| CliError::new(format!("bad response: {e}")))?;
    match resp {
        Response::Ok { report, trace, .. } => {
            if let Some(path) = trace_out {
                std::fs::write(path, trace.unwrap_or_default())
                    .map_err(|e| ctx(path, e))?;
            }
            Ok(report)
        }
        Response::Err { kind, message } => {
            Err(CliError::new(format!("serve {kind}: {message}")))
        }
    }
}

/// Write one line, read one line.
fn roundtrip<S: Read + Write>(
    mut stream: S,
    line: &str,
) -> Result<String, CliError> {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .map_err(|e| CliError::new(format!("send: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| CliError::new(format!("recv: {e}")))?;
    if reply.is_empty() {
        return Err(CliError::new(
            "connection closed before a response arrived",
        ));
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(dir: &Path, name: &str) -> PathBuf {
        let mut vocab = Vocab::new();
        let g = {
            let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
            b.uub("ss", "address", "b1");
            b.bul("b1", "zip", "EH8");
            // The file stem keeps each store's bytes distinct: the
            // cache is content-addressed, so identical content would
            // dedupe to one entry.
            b.uul("ss", "name", name);
            b.finish()
        };
        let path = dir.join(name);
        rdf_store::save_graph(&path, &vocab, &g).unwrap();
        path
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rdf-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn socket_spec_parses_both_flavours() {
        assert_eq!(
            SocketSpec::parse("/tmp/rdf.sock"),
            SocketSpec::Unix(PathBuf::from("/tmp/rdf.sock"))
        );
        assert_eq!(
            SocketSpec::parse("tcp:127.0.0.1:7878"),
            SocketSpec::Tcp("127.0.0.1:7878".into())
        );
    }

    #[test]
    fn cache_serves_warm_hits_and_counts() {
        let dir = tmp("cache");
        let path = store(&dir, "a.rdfb");
        let state =
            Arc::new(ServeState::new(Threads::Fixed(1), 1, 1 << 20));
        let rec = Recorder::disabled();
        let mut v1 = Vocab::new();
        let (g1, warm1) = state
            .load_cached(&path, &mut v1, &rec)
            .unwrap();
        assert!(!warm1);
        let mut v2 = Vocab::new();
        let (g2, warm2) = state
            .load_cached(&path, &mut v2, &rec)
            .unwrap();
        assert!(warm2);
        assert_eq!(g1.graph().triples(), g2.graph().triples());
        let cache = state.cache.lock().unwrap();
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A budget that fits two stores evicts the least recently used
    /// one when a third arrives: touching `a` after `b` makes `b` the
    /// victim.
    #[test]
    fn tiny_budget_evicts_least_recently_used() {
        let dir = tmp("evict");
        let a = store(&dir, "a.rdfb");
        let b = store(&dir, "b.rdfb");
        let c = store(&dir, "c.rdfb");
        let a_bytes = std::fs::metadata(&a).unwrap().len();
        let b_bytes = std::fs::metadata(&b).unwrap().len();
        let state = Arc::new(ServeState::new(
            Threads::Fixed(1),
            1,
            a_bytes + b_bytes,
        ));
        let rec = Recorder::disabled();
        let warm = |p: &Path| {
            state.load_cached(p, &mut Vocab::new(), &rec).unwrap().1
        };
        assert!(!warm(&a));
        assert!(!warm(&b));
        assert!(warm(&a));
        assert!(!warm(&c));
        {
            let cache = state.cache.lock().unwrap();
            assert_eq!(cache.evictions, 1);
            assert_eq!(cache.entries.len(), 2);
        }
        // `a` and `c` stayed resident; `b` was evicted.
        assert!(warm(&a));
        assert!(warm(&c));
        assert!(!warm(&b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_get_typed_errors_and_keep_the_connection() {
        // Drive handle_conn over an in-memory stream: three bad lines
        // then a good stats request — all four get responses. The sink
        // is shared so the output survives handle_conn taking the
        // stream by value.
        #[derive(Clone, Default)]
        struct SharedOut(Arc<Mutex<Vec<u8>>>);
        struct Conn {
            input: std::io::Cursor<Vec<u8>>,
            out: SharedOut,
        }
        impl Read for Conn {
            fn read(
                &mut self,
                buf: &mut [u8],
            ) -> std::io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Conn {
            fn write(
                &mut self,
                buf: &[u8],
            ) -> std::io::Result<usize> {
                self.out
                    .0
                    .lock()
                    .unwrap()
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let input = b"not json\n{\"op\":\"fly\"}\n{\"op\":\"align\"}\n{\"op\":\"stats\"}\n";
        let out = SharedOut::default();
        let conn = Conn {
            input: std::io::Cursor::new(input.to_vec()),
            out: out.clone(),
        };
        let state =
            Arc::new(ServeState::new(Threads::Fixed(1), 1, 1 << 20));
        handle_conn(conn, Arc::clone(&state));
        let text = String::from_utf8(
            out.0.lock().unwrap().clone(),
        )
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per line: {text}");
        for bad in &lines[..3] {
            let resp = Response::parse(bad).unwrap();
            assert!(
                matches!(
                    resp,
                    Response::Err {
                        kind: ErrorKind::BadRequest,
                        ..
                    }
                ),
                "expected bad_request, got {bad}"
            );
        }
        let last = Response::parse(lines[3]).unwrap();
        assert!(matches!(last, Response::Ok { .. }), "got {last:?}");
    }

    #[test]
    fn stats_reports_cache_and_request_counters() {
        let state =
            Arc::new(ServeState::new(Threads::Fixed(2), 2, 123));
        let resp = handle_request(&state, Request::Stats);
        match resp {
            Response::Ok { report, .. } => {
                assert!(report.contains("budget 123"), "{report}");
                assert!(report.contains("requests 1"), "{report}");
            }
            other => panic!("expected ok, got {other:?}"),
        }
    }
}
