//! The `rdf serve` daemon: alignment-as-a-service over a unix or tcp
//! socket.
//!
//! A one-shot `rdf align` loads both inputs for every run; the daemon
//! keeps the last pair it loaded. The moving parts:
//!
//! * a line-delimited JSON protocol (types in the `rdf-serve` crate —
//!   `docs/PROTOCOL.md` is normative);
//! * one **session slot**: the last store pair aligned, loaded by the
//!   one-shot load step ([`Session::load`]) and keyed by the content
//!   hashes of both stores, so a request for the same pair under any
//!   method reuses it and any other pair replaces it;
//! * one scoped thread per connection, up to [`MAX_CONNECTIONS`], so
//!   an idle client holds only its own thread;
//! * `workers` permits for heavy requests (`import`, `info`, `align`),
//!   so at most that many compute at once while `stats` never waits;
//! * per-request [`Recorder`]s, so traces stay isolated per client and
//!   can be returned in the response (`"trace":true`).
//!
//! Responses run the one-shot code: [`crate::info_traced`], and for
//! `align` [`Session::align`] and [`crate::AlignOutcome::render`].
//! There is no second load, pipeline or rendering path, which is what
//! makes the byte-identity contract hold by construction.

use crate::pipeline::{ctx, Input};
use crate::signals;
use crate::{CliError, Session};
use rdf_align::Threads;
use rdf_obs::Recorder;
use rdf_par::MAX_THREADS;
use rdf_serve::{ErrorKind, Request, Response};
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Scope;
use std::time::Instant;

/// Retired: the byte budget of the per-store cache the session slot
/// replaced. [`ServeState::new`] still takes it and ignores it.
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

/// The slot's one entry: a store pair's key and, once loaded, its
/// session. The session mutex is the entry's own load lock: concurrent
/// requests for the pair pay one load, and the slot, `stats` and every
/// other pair never wait on it.
struct SlotEntry {
    key: (u64, u64),
    session: Mutex<Option<Arc<Session>>>,
}

/// Read-side closers of the live connections, by id. At shutdown each
/// connection is shut for reading, so a handler idling in a read sees
/// end of input and returns, while one mid-request still writes its
/// response.
#[derive(Default)]
struct LiveConns {
    next: u64,
    closers: Vec<(u64, Box<dyn Fn() + Send>)>,
}

/// Everything a request handler needs, shared across connections.
pub struct ServeState {
    started: Instant,
    default_threads: Threads,
    workers: usize,
    /// The session of the last store pair aligned (see
    /// `docs/PROTOCOL.md`, "The session slot").
    slot: Mutex<Option<Arc<SlotEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    conns: Mutex<LiveConns>,
    /// The permits for heavy requests. The mutex guards only their
    /// counts: no lock is held across heavy work.
    permits: Mutex<Permits>,
    permit_freed: Condvar,
}

/// How many of the `workers` permits are free, and how many requests
/// wait for one.
struct Permits {
    free: usize,
    waiting: usize,
}

/// One heavy request's permit, returned when dropped.
struct Permit<'a>(&'a ServeState);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        lock(&self.0.permits).free += 1;
        self.0.permit_freed.notify_one();
    }
}

impl ServeState {
    /// Fresh state. The third argument is retired and ignored: it was
    /// the byte budget of the per-store cache the session slot
    /// replaced.
    pub fn new(
        default_threads: Threads,
        workers: usize,
        _retired_cache_bytes: u64,
    ) -> ServeState {
        ServeState {
            started: Instant::now(),
            default_threads,
            workers,
            slot: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            conns: Mutex::new(LiveConns::default()),
            permits: Mutex::new(Permits {
                free: workers.max(1),
                waiting: 0,
            }),
            permit_freed: Condvar::new(),
        }
    }

    /// Wait for a free permit: heavy work runs under one, and nothing
    /// waits on another request (an entry lock, a client's next line)
    /// while holding one.
    fn permit(&self) -> Permit<'_> {
        let mut permits = lock(&self.permits);
        permits.waiting += 1;
        while permits.free == 0 {
            permits = self
                .permit_freed
                .wait(permits)
                .unwrap_or_else(|e| e.into_inner());
        }
        permits.waiting -= 1;
        permits.free -= 1;
        Permit(self)
    }

    /// Per-request thread budget: the request's `threads` field wins
    /// over the server default.
    fn threads_for(&self, req: Option<usize>) -> Threads {
        match req {
            Some(n) => Threads::Fixed(n),
            None => self.default_threads,
        }
    }

    /// The slot's entry for `key`. Any other pair's entry is replaced;
    /// requests that already hold it keep it alive until they finish.
    fn entry(&self, key: (u64, u64)) -> Arc<SlotEntry> {
        let mut slot = lock(&self.slot);
        match &*slot {
            Some(entry) if entry.key == key => Arc::clone(entry),
            _ => {
                let entry = Arc::new(SlotEntry {
                    key,
                    session: Mutex::new(None),
                });
                *slot = Some(Arc::clone(&entry));
                entry
            }
        }
    }

    /// The session for an `align` of `source` to `target`, and whether
    /// it came from the slot.
    ///
    /// A pair of stores is keyed by the content hashes of the bytes
    /// opened, and loaded by the one-shot load step under the entry's
    /// lock, so reports stay byte-identical to `rdf align` and a reuse
    /// opens nothing (no `store.open` span). A failed load leaves the
    /// entry empty, and the next request retries it. A pair with
    /// N-Triples text bypasses the slot. Opening, hashing and loading
    /// each run under a permit; waiting on the entry lock does not.
    fn session(
        &self,
        source: &Path,
        target: &Path,
        rec: &Recorder,
    ) -> Result<(Arc<Session>, bool), CliError> {
        let heavy = self.permit();
        let (source, target) = (Input::open(source)?, Input::open(target)?);
        let (Some(k1), Some(k2)) = (store_key(&source)?, store_key(&target)?)
        else {
            return Ok((Arc::new(Session::load(source, target, rec)?), false));
        };
        drop(heavy);
        let entry = self.entry((k1, k2));
        let mut loaded = lock(&entry.session);
        if let Some(session) = &*loaded {
            self.hits.fetch_add(2, Ordering::Relaxed);
            return Ok((Arc::clone(session), true));
        }
        self.misses.fetch_add(2, Ordering::Relaxed);
        let _heavy = self.permit();
        let session = Arc::new(Session::load(source, target, rec)?);
        *loaded = Some(Arc::clone(&session));
        Ok((session, false))
    }

    /// Render the `stats` report.
    fn stats_text(&self) -> String {
        format!(
            "rdf serve stats\n\
             \x20 uptime_s {}\n\
             \x20 requests {} errors {}\n\
             \x20 workers {}\n\
             \x20 cache hits {} misses {}\n",
            self.started.elapsed().as_secs(),
            self.requests.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.workers,
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Track a live connection by its read-side closer, or `None` when
    /// [`MAX_CONNECTIONS`] are live already.
    fn track(&self, closer: Box<dyn Fn() + Send>) -> Option<u64> {
        let mut conns = lock(&self.conns);
        if conns.closers.len() >= MAX_CONNECTIONS {
            return None;
        }
        let id = conns.next;
        conns.next += 1;
        conns.closers.push((id, closer));
        Some(id)
    }

    /// Forget a connection whose handler returned (dropping the closer
    /// closes its handle).
    fn untrack(&self, id: u64) {
        lock(&self.conns).closers.retain(|(i, _)| *i != id);
    }

    /// Shut every live connection for reading.
    fn close_reads(&self) {
        for (_, close) in &lock(&self.conns).closers {
            close();
        }
    }
}

/// Lock a mutex, recovering it if a panicking request poisoned it: the
/// state it guards is replaced whole, never left half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The slot key of one input: [`content_key`] over an open store's
/// bytes, or `None` for N-Triples text. A bad header (a retired kind or
/// layout) fails before the slot counts a lookup.
fn store_key(input: &Input<'_>) -> Result<Option<u64>, CliError> {
    let Some(reader) = &input.store else {
        return Ok(None);
    };
    let bytes = reader.buf().as_slice();
    rdf_store::Container::parse_header(bytes)
        .map_err(|e| ctx(input.path, e))?;
    Ok(Some(content_key(bytes)))
}

/// FxHash over the file's length, then its bytes eight at a time: half
/// of the slot key. Content-addressed, so re-imports of identical data
/// hit and rewritten files miss — no mtime races. The length goes first
/// because FxHash starts at 0, and would map leading zero words to 0.
fn content_key(bytes: &[u8]) -> u64 {
    let mut h = rdf_model::FxHasher::default();
    h.write_usize(bytes.len());
    h.write(bytes);
    h.finish()
}

/// A `Vec<u8>` sink shared with the recorder, so a request's JSONL
/// trace can be read back and returned in its response.
#[derive(Clone, Default)]
struct TraceBuf(Arc<Mutex<Vec<u8>>>);

impl Write for TraceBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl TraceBuf {
    fn take(&self) -> String {
        let bytes = std::mem::take(&mut *lock(&self.0));
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
    if let Request::Import { threads, .. }
    | Request::Info { threads, .. }
    | Request::Align { threads, .. } = &req
    {
        if let Some(n) = threads.filter(|n| !(1..=MAX_THREADS).contains(n)) {
            return return_bad_request(format!(
                "field \"threads\" is {n}; expected 1 to {MAX_THREADS}"
            ));
        }
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
            let _heavy = state.permit();
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
            // slot — it is the slot-bypass readback.
            let threads = state.threads_for(threads);
            let _heavy = state.permit();
            crate::info_traced(
                Path::new(&path),
                bisim.then_some(threads),
                false,
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
        } => align(
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

/// [`crate::align_traced`] through the session slot: the same load
/// step, outcome step and renderer, so the report is byte-identical to
/// the one-shot CLI's. `cached` is true when the session came from the
/// slot.
fn align(
    state: &ServeState,
    source: &str,
    target: &str,
    method_name: &str,
    theta: Option<f64>,
    threads: Threads,
    rec: &Arc<Recorder>,
) -> Result<(String, bool), CliError> {
    let method = crate::parse_method(method_name, theta)?;
    let (source, target) = (Path::new(source), Path::new(target));
    let (session, cached) = state.session(source, target, rec)?;
    let _heavy = state.permit();
    let outcome = session.align(source, target, method, threads, false, rec)?;
    Ok((outcome.render(), cached))
}

/// Serve one connection: read request lines, answer each with exactly
/// one response line. Malformed lines get a typed `bad_request` error;
/// the connection always stays open until the client closes it.
fn handle_conn<S: Read + Write>(stream: S, state: &Arc<ServeState>) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    while let Ok(Some(read)) = read_request_line(&mut reader, &mut line) {
        let parsed = match read {
            RequestLine::TooLong => Err(format!(
                "request line longer than {MAX_REQUEST_LINE} bytes"
            )),
            RequestLine::Complete => match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => Request::parse(text).map_err(|e| e.to_string()),
                Err(e) => Err(format!(
                    "request line is not valid UTF-8 (at byte {})",
                    e.valid_up_to()
                )),
            },
        };
        let resp = match parsed {
            Ok(req) => handle_request(state, req),
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

/// Longest request line the daemon buffers, newline included. A line
/// that reaches this length without its newline gets a `bad_request`
/// reply, and the rest of it is skipped without being buffered.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Most connections the daemon serves at once, each on its own thread.
/// A connection past the cap gets one `overloaded` error line and is
/// closed.
pub const MAX_CONNECTIONS: usize = 64;

/// How [`read_request_line`] ended a line.
enum RequestLine {
    /// The line is in the buffer (with its `\n`, unless at end of input).
    Complete,
    /// The line reached [`MAX_REQUEST_LINE`] and was skipped.
    TooLong,
}

/// Read one `\n`-terminated line of raw bytes into `line`, holding at
/// most [`MAX_REQUEST_LINE`] of them. `None` at end of input.
fn read_request_line<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
) -> std::io::Result<Option<RequestLine>> {
    line.clear();
    let cap = MAX_REQUEST_LINE as u64;
    if reader.by_ref().take(cap).read_until(b'\n', line)? == 0 {
        return Ok(None);
    }
    if line.len() == MAX_REQUEST_LINE && !line.ends_with(b"\n") {
        reader.skip_until(b'\n')?;
        return Ok(Some(RequestLine::TooLong));
    }
    Ok(Some(RequestLine::Complete))
}

/// Run the daemon until SIGTERM/SIGINT. Returns the shutdown report
/// line (printed by `main` after a clean exit).
///
/// Each connection runs on its own scoped thread. Shutdown stops
/// accepting, shuts every live connection for reading and joins their
/// threads as the scope ends: a request already read is answered, and
/// an idle connection ends without holding the exit up.
pub fn serve(socket: &str, threads: Threads) -> Result<String, CliError> {
    let spec = SocketSpec::parse(socket);
    // Block the termination signals *before* the first connection
    // thread starts, so every handler inherits the mask and SIGTERM
    // only ever surfaces on the signalfd.
    let sig = match signals::setup() {
        Some(Ok(sig)) => Some(sig),
        Some(Err(e)) => {
            return Err(CliError::new(format!("signalfd: {e}")))
        }
        None => None,
    };
    let workers = threads.resolve().max(2);
    let state = Arc::new(ServeState::new(threads, workers, 0));

    let ended = std::thread::scope(|scope| {
        let ended = match &spec {
            SocketSpec::Unix(path) => {
                // A stale socket file from a previous run would make
                // bind fail; remove it (a live server would still
                // conflict at connect time, which is the error we want).
                let _ = std::fs::remove_file(path);
                let listener =
                    UnixListener::bind(path).map_err(|e| ctx(path, e))?;
                announce(&spec, workers);
                let ended = accept_loop(&listener, sig, scope, &state);
                let _ = std::fs::remove_file(path);
                ended
            }
            SocketSpec::Tcp(addr) => {
                let listener = TcpListener::bind(addr)
                    .map_err(|e| CliError::new(format!("{addr}: {e}")))?;
                announce(&spec, workers);
                accept_loop(&listener, sig, scope, &state)
            }
        };
        state.close_reads();
        ended
    })?; // the scope has joined every handler: requests read are answered
    Ok(format!(
        "rdf serve: shutdown on signal {} ({} requests served)\n",
        ended,
        state.requests.load(Ordering::Relaxed),
    ))
}

/// Print the readiness line eagerly (clients and CI wait for it).
fn announce(spec: &SocketSpec, workers: usize) {
    println!("rdf serve: listening on {spec} ({workers} workers)");
    let _ = std::io::stdout().flush();
}

/// The accept loop, generic over the listener flavour. Returns the
/// signal number that ended it.
fn accept_loop<'scope, L: Listener>(
    listener: &L,
    sig: Option<signals::SignalFd>,
    scope: &'scope Scope<'scope, '_>,
    state: &'scope Arc<ServeState>,
) -> Result<u32, CliError> {
    let accept_err = |e| CliError::new(format!("accept: {e}"));
    let Some(sig) = sig else {
        // No signalfd on this platform: serve until killed.
        loop {
            let conn = listener.accept_conn().map_err(accept_err)?;
            spawn_conn::<L>(scope, state, conn);
        }
    };
    listener
        .set_nonblocking(true)
        .map_err(|e| CliError::new(format!("listener: {e}")))?;
    loop {
        match signals::wait(listener.as_raw_fd(), &sig)
            .map_err(|e| CliError::new(format!("ppoll: {e}")))?
        {
            signals::Wake::Signal(signo) => return Ok(signo),
            signals::Wake::Connection => match listener.accept_conn() {
                Ok(conn) => spawn_conn::<L>(scope, state, conn),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(accept_err(e)),
            },
        }
    }
}

/// Serve an accepted connection on its own scoped thread, tracked
/// until its handler returns so that shutdown can end its reads. Past
/// [`MAX_CONNECTIONS`] it gets one `overloaded` line instead. A
/// connection whose handle cannot be cloned, or whose thread cannot be
/// spawned, is dropped.
fn spawn_conn<'scope, L: Listener>(
    scope: &'scope Scope<'scope, '_>,
    state: &'scope Arc<ServeState>,
    mut conn: L::Conn,
) {
    let Ok(closer) = L::read_closer(&conn) else {
        return;
    };
    let Some(id) = state.track(closer) else {
        let busy = Response::error(
            ErrorKind::Overloaded,
            format!(
                "{MAX_CONNECTIONS} connections open; retry after one closes"
            ),
        );
        let _ = conn.write_all(format!("{}\n", busy.to_line()).as_bytes());
        return;
    };
    let spawned = std::thread::Builder::new()
        .name(format!("rdf-conn-{id}"))
        .spawn_scoped(scope, move || {
            let _ = catch_unwind(AssertUnwindSafe(|| handle_conn(conn, state)));
            state.untrack(id);
        });
    if spawned.is_err() {
        state.untrack(id);
    }
}

/// What the accept loop needs of a listener, so unix and tcp share one
/// loop.
trait Listener: AsRawFd {
    type Conn: Read + Write + Send + 'static;
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()>;
    fn accept_conn(&self) -> std::io::Result<Self::Conn>;
    /// A second handle on `conn` that shuts its read side when called.
    fn read_closer(conn: &Self::Conn) -> std::io::Result<Box<dyn Fn() + Send>>;
}

impl Listener for UnixListener {
    type Conn = UnixStream;
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        UnixListener::set_nonblocking(self, nb)
    }
    fn accept_conn(&self) -> std::io::Result<UnixStream> {
        self.accept().map(|(conn, _)| conn)
    }
    fn read_closer(conn: &UnixStream) -> std::io::Result<Box<dyn Fn() + Send>> {
        let handle = conn.try_clone()?;
        Ok(Box::new(move || {
            let _ = handle.shutdown(Shutdown::Read);
        }))
    }
}

impl Listener for TcpListener {
    type Conn = TcpStream;
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        TcpListener::set_nonblocking(self, nb)
    }
    fn accept_conn(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(conn, _)| conn)
    }
    fn read_closer(conn: &TcpStream) -> std::io::Result<Box<dyn Fn() + Send>> {
        let handle = conn.try_clone()?;
        Ok(Box::new(move || {
            let _ = handle.shutdown(Shutdown::Read);
        }))
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
            let stream = UnixStream::connect(&path)
                .map_err(|e| ctx(&path, e))?;
            roundtrip(stream, line)?
        }
        SocketSpec::Tcp(addr) => {
            let stream = TcpStream::connect(&addr)
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
    use rdf_model::Vocab;

    fn store(dir: &Path, name: &str) -> PathBuf {
        let mut vocab = Vocab::new();
        let g = {
            let mut b = rdf_model::RdfGraphBuilder::new(&mut vocab);
            b.uub("ss", "address", "b1");
            b.bul("b1", "zip", "EH8");
            // The file stem keeps each store's bytes distinct: the
            // slot is content-addressed, so identical content would
            // share one key.
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

    fn align_req(source: &Path, target: &Path, method: &str) -> Request {
        Request::Align {
            source: source.display().to_string(),
            target: target.display().to_string(),
            method: method.into(),
            theta: None,
            streaming: false,
            threads: Some(1),
            trace: false,
        }
    }

    /// The report and `cached` flag of a successful response.
    fn ok(resp: Response) -> (String, bool) {
        match resp {
            Response::Ok { report, cached, .. } => (report, cached),
            other => panic!("expected ok, got {other:?}"),
        }
    }

    fn one_shot(source: &Path, target: &Path, method: &str) -> String {
        crate::align(source, target, method, None, Threads::Fixed(1))
            .unwrap()
            .render()
    }

    fn slot_key(source: &Path, target: &Path) -> (u64, u64) {
        let hash = |p: &Path| content_key(&std::fs::read(p).unwrap());
        (hash(source), hash(target))
    }

    /// The first align of a pair loads it (2 misses); a second
    /// request, and one for another method on the same pair, reuse the
    /// session (2 hits each). Every report equals the one-shot CLI's.
    #[test]
    fn cache_serves_warm_hits_and_counts() {
        let dir = tmp("cache");
        let a = store(&dir, "a.rdfb");
        let b = store(&dir, "b.rdfb");
        let state = Arc::new(ServeState::new(Threads::Fixed(1), 1, 0));
        for (method, warm) in
            [("hybrid", false), ("hybrid", true), ("trivial", true)]
        {
            let (report, cached) =
                ok(handle_request(&state, align_req(&a, &b, method)));
            assert_eq!(cached, warm, "{method}");
            assert_eq!(report, one_shot(&a, &b, method), "{method}");
        }
        assert_eq!(state.hits.load(Ordering::Relaxed), 4);
        assert_eq!(state.misses.load(Ordering::Relaxed), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// While pair A's entry lock is held, as if its load were in
    /// flight, and a request for A waits on it, `stats` and an align of
    /// pair B both complete. Then N concurrent requests for A perform
    /// one load between them.
    #[test]
    fn no_request_waits_on_another_pairs_load() {
        let dir = tmp("nowait");
        let [a1, a2, b1, b2] = ["a1.rdfb", "a2.rdfb", "b1.rdfb", "b2.rdfb"]
            .map(|name| store(&dir, name));
        let state = Arc::new(ServeState::new(Threads::Fixed(1), 1, 0));
        let spawn_align = |source: &Path, target: &Path| {
            let state = Arc::clone(&state);
            let req = align_req(source, target, "hybrid");
            std::thread::spawn(move || ok(handle_request(&state, req)))
        };

        let entry = state.entry(slot_key(&a1, &a2));
        let loading = lock(&entry.session);
        let waiting = spawn_align(&a1, &a2);
        // The slot, this test and the waiting request hold the entry.
        while Arc::strong_count(&entry) < 3 {
            std::thread::yield_now();
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let other = {
            let state = Arc::clone(&state);
            let req = align_req(&b1, &b2, "hybrid");
            std::thread::spawn(move || {
                let stats = handle_request(&state, Request::Stats);
                let _ = tx.send((stats, handle_request(&state, req)));
            })
        };
        let (stats, b) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("stats and pair B must not wait on pair A's load");
        other.join().unwrap();
        ok(stats);
        assert_eq!(ok(b), (one_shot(&b1, &b2, "hybrid"), false));
        drop(loading);
        let want = one_shot(&a1, &a2, "hybrid");
        assert_eq!(waiting.join().unwrap(), (want.clone(), false));
        assert_eq!(state.misses.load(Ordering::Relaxed), 2 + 2);

        let n = 4;
        let entry = state.entry(slot_key(&a1, &a2));
        let loading = lock(&entry.session);
        let requests: Vec<_> = (0..n).map(|_| spawn_align(&a1, &a2)).collect();
        drop(loading);
        let served: Vec<_> =
            requests.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(served.iter().all(|(report, _)| *report == want));
        assert_eq!(served.iter().filter(|(_, cached)| !cached).count(), 1);
        assert_eq!(state.misses.load(Ordering::Relaxed), 2 + 2 + 2);
        assert_eq!(state.hits.load(Ordering::Relaxed), 2 * n - 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// While pair A's entry lock is held and a request for A waits on
    /// it, that request holds no permit. With every permit taken, an
    /// align of pair B does not run, and `stats` still answers; B runs
    /// once a permit comes back.
    #[test]
    fn heavy_requests_run_only_under_a_permit() {
        let dir = tmp("permits");
        let [a1, a2, b1, b2] = ["a1.rdfb", "a2.rdfb", "b1.rdfb", "b2.rdfb"]
            .map(|name| store(&dir, name));
        let workers = 2;
        let state = Arc::new(ServeState::new(Threads::Fixed(1), workers, 0));

        let entry = state.entry(slot_key(&a1, &a2));
        let loading = lock(&entry.session);
        let waiting = {
            let state = Arc::clone(&state);
            let req = align_req(&a1, &a2, "hybrid");
            std::thread::spawn(move || ok(handle_request(&state, req)))
        };
        // The slot, this test and the waiting request hold the entry.
        while Arc::strong_count(&entry) < 3 {
            std::thread::yield_now();
        }
        assert_eq!(lock(&state.permits).free, workers);
        let held: Vec<Permit<'_>> =
            (0..workers).map(|_| state.permit()).collect();

        let (tx, rx) = std::sync::mpsc::channel();
        let heavy = {
            let state = Arc::clone(&state);
            let req = align_req(&b1, &b2, "hybrid");
            std::thread::spawn(move || {
                let _ = tx.send(handle_request(&state, req));
            })
        };
        // B waits for a permit, and stats does not.
        while lock(&state.permits).waiting == 0 {
            assert!(rx.try_recv().is_err(), "pair B ran without a permit");
            std::thread::yield_now();
        }
        ok(handle_request(&state, Request::Stats));
        assert!(rx.try_recv().is_err(), "pair B ran without a permit");
        drop(held);
        let b = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("pair B runs once a permit is free");
        heavy.join().unwrap();
        assert_eq!(ok(b), (one_shot(&b1, &b2, "hybrid"), false));

        drop(loading);
        let want = one_shot(&a1, &a2, "hybrid");
        assert_eq!(waiting.join().unwrap(), (want, false));
        assert_eq!(lock(&state.permits).free, workers);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The slot key is the same for the same bytes opened twice, and
    /// differs after any one-byte change: first byte, middle, last
    /// byte, or inside a tail shorter than eight bytes.
    #[test]
    fn content_key_tracks_every_byte() {
        let dir = tmp("key");
        let path = store(&dir, "k.rdfb");
        let key = || store_key(&Input::open(&path).unwrap()).unwrap();
        assert!(key().is_some());
        assert_eq!(key(), key());

        for len in [8 * 125, 8 * 125 + 3] {
            let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let base = content_key(&bytes);
            for at in [0, len / 2, len - 2, len - 1] {
                let mut edited = bytes.clone();
                edited[at] ^= 1;
                assert_ne!(content_key(&edited), base, "len {len}, byte {at}");
            }
        }
        // Leading zero words count: the length is hashed first.
        assert_ne!(content_key(&[0; 16]), content_key(&[0; 8]));
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
        handle_conn(conn, &state);
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

    /// A thread count outside `1..=MAX_THREADS` is refused before the
    /// request's path is opened: a missing path would otherwise answer
    /// `engine`.
    #[test]
    fn thread_counts_out_of_bounds_are_bad_requests() {
        let state = Arc::new(ServeState::new(Threads::Fixed(1), 1, 0));
        for threads in [100_000, 0] {
            let line = format!(
                r#"{{"op":"info","path":"/nonexistent/v1.rdfb","bisim":true,"threads":{threads}}}"#
            );
            let resp = handle_request(&state, Request::parse(&line).unwrap());
            match resp {
                Response::Err { kind, message } => {
                    assert_eq!(kind, ErrorKind::BadRequest);
                    assert!(message.contains("threads"), "{message}");
                }
                other => panic!("expected bad_request, got {other:?}"),
            }
        }
    }

    #[test]
    fn stats_reports_cache_and_request_counters() {
        let state = Arc::new(ServeState::new(Threads::Fixed(2), 2, 0));
        let (report, _) = ok(handle_request(&state, Request::Stats));
        assert!(report.contains("cache hits 0 misses 0"), "{report}");
        assert!(report.contains("requests 1"), "{report}");
    }
}
