//! End-to-end tests of the real `rdf serve` daemon: spawn the binary,
//! talk to it over its unix socket (raw and via `rdf request`), and
//! hold it to the protocol's contracts — byte-identity with the
//! one-shot CLI, the warm session slot, typed errors for malformed
//! lines, re-imports under an in-flight align, and clean SIGTERM
//! shutdown.

use rdf_serve::Response;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rdf")
}

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "rdf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("rdf-serve-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn s(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// Generate and import the two-version fixture; returns the absolute
/// store paths (absolute so one-shot and served reports agree on the
/// path lines too).
fn fixture(dir: &TempDir) -> (PathBuf, PathBuf) {
    fixture_at(dir, "0.1")
}

/// [`fixture`] at a given datagen scale.
fn fixture_at(dir: &TempDir, scale: &str) -> (PathBuf, PathBuf) {
    run_ok(&[
        "gen", "--scale", scale, "--versions", "2", "--out-dir", s(&dir.0),
    ]);
    let v1 = dir.path("v1.rdfb");
    let v2 = dir.path("v2.rdfb");
    run_ok(&["import", s(&dir.path("efo-v1.nt")), s(&v1)]);
    run_ok(&["import", s(&dir.path("efo-v2.nt")), s(&v2)]);
    (v1, v2)
}

/// A running daemon: spawned with `--socket`, confirmed ready (the
/// readiness line is printed before the accept loop starts), killed on
/// drop if the test didn't shut it down itself.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn start(socket: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(bin())
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut ready = String::new();
        stdout.read_line(&mut ready).unwrap();
        assert!(
            ready.contains("listening"),
            "daemon not ready, got: {ready:?}"
        );
        Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
            stdout,
        }
    }

    fn sock(&self) -> &str {
        self.socket.to_str().unwrap()
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().unwrap().id()
    }

    /// SIGTERM the daemon and return (exit status success, remaining
    /// stdout). Panics if it has not exited within 20 s.
    fn terminate(mut self) -> (bool, String) {
        let mut child = self.child.take().unwrap();
        let ok = Command::new("kill")
            .arg("-TERM")
            .arg(child.id().to_string())
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "kill -TERM failed");
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().expect("daemon waits") {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("daemon still running 20 s after SIGTERM");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        (status.success(), rest)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Raw client: one connection, send each line, read one response per
/// line sent.
fn raw_roundtrips<L: AsRef<[u8]>>(socket: &Path, lines: &[L]) -> Vec<String> {
    let stream = UnixStream::connect(socket).expect("connects");
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::new();
    for line in lines {
        let s = reader.get_mut();
        s.write_all(line.as_ref()).unwrap();
        s.write_all(b"\n").unwrap();
        s.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.ends_with('\n'),
            "response not newline-terminated (connection dropped?): \
             {reply:?}"
        );
        replies.push(reply);
    }
    replies
}

fn align_request(v1: &Path, v2: &Path) -> String {
    format!(
        r#"{{"op":"align","source":"{}","target":"{}"}}"#,
        v1.display(),
        v2.display()
    )
}

/// The report and `cached` flag of a successful response line.
fn served(reply: &str) -> (String, bool) {
    match Response::parse(reply).expect("response parses") {
        Response::Ok { report, cached, .. } => (report, cached),
        other => panic!("expected ok, got {other:?}"),
    }
}

/// N concurrent clients each get a response byte-identical to the
/// one-shot CLI's stdout for the same invocation — the core serve
/// contract. The daemon then reports every request in its stats.
#[test]
fn concurrent_clients_match_one_shot_cli_byte_for_byte() {
    let dir = TempDir::new("concurrent");
    let (v1, v2) = fixture(&dir);
    let one_shot = run_ok(&["align", s(&v1), s(&v2)]);

    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let req = align_request(&v1, &v2);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let sock = daemon.sock().to_string();
            let req = req.clone();
            std::thread::spawn(move || {
                let out = Command::new(bin())
                    .args(["request", "--socket", &sock, &req])
                    .output()
                    .expect("client runs");
                assert!(
                    out.status.success(),
                    "request failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                String::from_utf8(out.stdout).unwrap()
            })
        })
        .collect();
    for h in handles {
        let served = h.join().expect("client thread");
        assert_eq!(
            served, one_shot,
            "served align report differs from one-shot CLI"
        );
    }

    let stats =
        run_ok(&["request", "--socket", daemon.sock(), r#"{"op":"stats"}"#]);
    assert!(stats.contains("requests 5"), "stats counted all: {stats}");
    assert!(stats.contains("errors 0"), "no errors: {stats}");

    let (clean, rest) = daemon.terminate();
    assert!(clean, "daemon exited non-zero");
    assert!(rest.contains("shutdown on signal 15"), "got: {rest:?}");
}

/// The warm-session criterion: the first traced align opens both
/// stores (`store.open` spans); the second identical request reuses
/// the session and its trace carries **no** `store.open` span at all —
/// while the report stays byte-identical.
#[test]
fn warm_cache_request_skips_store_open_entirely() {
    let dir = TempDir::new("warm");
    let (v1, v2) = fixture(&dir);
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let req = format!(
        r#"{{"op":"align","source":"{}","target":"{}","trace":true}}"#,
        v1.display(),
        v2.display()
    );
    let cold_trace = dir.path("cold.jsonl");
    let warm_trace = dir.path("warm.jsonl");
    let cold = run_ok(&[
        "request", "--socket", daemon.sock(),
        "--trace-out", s(&cold_trace), &req,
    ]);
    let warm = run_ok(&[
        "request", "--socket", daemon.sock(),
        "--trace-out", s(&warm_trace), &req,
    ]);
    assert_eq!(cold, warm, "warm report must stay byte-identical");

    let cold_text = std::fs::read_to_string(&cold_trace).unwrap();
    let warm_text = std::fs::read_to_string(&warm_trace).unwrap();
    assert!(
        cold_text.contains("store.open"),
        "cold trace opens the stores: {cold_text}"
    );
    assert!(
        !warm_text.contains("store.open"),
        "warm trace must skip store.open: {warm_text}"
    );
    // The union is built once, by the load: the cold trace has exactly
    // one `align.union` span and the warm one none.
    let unions = |text: &str| {
        text.lines()
            .filter(|l| l.contains(r#""name":"align.union""#))
            .count()
    };
    assert_eq!(unions(&cold_text), 1, "cold trace: {cold_text}");
    assert_eq!(unions(&warm_text), 0, "warm trace: {warm_text}");
    // The warm request still did real work — refinement spans present.
    assert!(
        warm_text.contains("refine.fixpoint"),
        "warm trace still records the pipeline: {warm_text}"
    );
    // And both per-request traces aggregate through `rdf stats`.
    let stats = run_ok(&["stats", s(&warm_trace)]);
    assert!(stats.contains("refine.fixpoint"), "{stats}");
}

/// Every method's served report equals the one-shot CLI's, cold and
/// warm, and the slot follows the pair: a second pair replaces the
/// first, and the first pair again loads cold and stays correct.
#[test]
fn every_method_matches_one_shot_cold_and_warm_across_pairs() {
    let dir = TempDir::new("methods");
    let (v1, v2) = fixture(&dir);
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let mut lines = Vec::new();
    let mut want = Vec::new();
    for method in ["trivial", "deblank", "hybrid", "overlap"] {
        for (src, dst) in [(&v1, &v2), (&v2, &v1)] {
            let one_shot =
                run_ok(&["align", "--method", method, s(src), s(dst)]);
            let req = format!(
                r#"{{"op":"align","source":"{}","target":"{}","method":"{method}"}}"#,
                src.display(),
                dst.display()
            );
            lines.extend([req.clone(), req]);
            want.extend([(one_shot.clone(), false), (one_shot, true)]);
        }
    }
    let replies = raw_roundtrips(&daemon.socket, &lines);
    for ((reply, want), line) in replies.iter().zip(&want).zip(&lines) {
        assert_eq!(&served(reply), want, "{line}");
    }
}

/// A session loaded by a hybrid align holds no label text; the first
/// overlap align on it reloads the pair with texts, as a miss loads it
/// (its trace opens both stores, merges their labels and builds the
/// union; `stats` counts its misses), and later aligns of either method
/// reuse the reloaded session as it is. Every report equals the
/// one-shot CLI's.
#[test]
fn overlap_reloads_a_text_less_session_with_texts() {
    let dir = TempDir::new("reload");
    let (v1, v2) = fixture(&dir);
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let request = |method: &str, trace: &Path| {
        let req = format!(
            r#"{{"op":"align","source":"{}","target":"{}","method":"{method}","trace":true}}"#,
            v1.display(),
            v2.display()
        );
        let out = run_ok(&[
            "request", "--socket", daemon.sock(),
            "--trace-out", s(trace), &req,
        ]);
        (out, std::fs::read_to_string(trace).unwrap())
    };
    let count = |text: &str, name: &str| {
        let name = format!(r#""name":"{name}""#);
        text.lines().filter(|l| l.contains(&name)).count()
    };
    let one_shot = |method| run_ok(&["align", "--method", method, s(&v1), s(&v2)]);
    let (hybrid, overlap) = (one_shot("hybrid"), one_shot("overlap"));
    let steps = [
        ("hybrid", &hybrid, [2, 1, 1]),
        ("overlap", &overlap, [2, 1, 1]),
        ("hybrid", &hybrid, [0, 0, 0]),
        ("overlap", &overlap, [0, 0, 0]),
    ];
    for (i, (method, want, [opens, merges, unions])) in steps.into_iter().enumerate() {
        let (out, trace) = request(method, &dir.path(&format!("t{i}.jsonl")));
        assert_eq!(&out, want, "step {i}: {method}");
        assert_eq!(count(&trace, "store.open"), opens, "step {i}: {trace}");
        assert_eq!(count(&trace, "store.merge"), merges, "step {i}: {trace}");
        assert_eq!(count(&trace, "align.union"), unions, "step {i}: {trace}");
    }
    let stats =
        run_ok(&["request", "--socket", daemon.sock(), r#"{"op":"stats"}"#]);
    assert!(stats.contains("cache hits 4 misses 4"), "{stats}");
}

/// Re-importing a store while an align over it is in flight: the
/// in-flight align reports over the bytes it opened (the old store);
/// the next align misses the slot and reports over the new store.
#[test]
fn reimport_under_an_inflight_align_keeps_both_reports_exact() {
    let dir = TempDir::new("reimport");
    let (v1, v2) = fixture_at(&dir, "2");
    let old = run_ok(&["align", s(&v1), s(&v2)]);
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let mut conn = BufReader::new(UnixStream::connect(&daemon.socket).unwrap());
    let req = align_request(&v1, &v2);
    writeln!(conn.get_mut(), "{req}").unwrap();
    // Re-import once the daemon has `v2` mapped (it holds the mapping
    // from open to load), or once the align has already been answered.
    let maps = format!("/proc/{}/maps", daemon.pid());
    let deadline = Instant::now() + Duration::from_secs(20);
    conn.get_ref().set_nonblocking(true).unwrap();
    while !std::fs::read_to_string(&maps).unwrap().contains(s(&v2))
        && conn.fill_buf().is_err()
    {
        assert!(Instant::now() < deadline, "align never started");
        std::thread::sleep(Duration::from_micros(200));
    }
    conn.get_ref().set_nonblocking(false).unwrap();
    run_ok(&["import", s(&dir.path("efo-v1.nt")), s(&v2)]);
    let mut reply = String::new();
    conn.read_line(&mut reply).unwrap();
    assert_eq!(served(&reply), (old.clone(), false));

    let new = run_ok(&["align", s(&v1), s(&v2)]);
    assert_ne!(new, old, "the re-import changed the target");
    let replies = raw_roundtrips(&daemon.socket, &[&req]);
    assert_eq!(served(&replies[0]), (new, false));
}

/// SIGTERM with one idle connection open and one align in flight: the
/// align gets its full report, the idle connection sees end of input,
/// and the daemon exits 0 with its shutdown line.
#[test]
fn sigterm_answers_inflight_align_and_ends_idle_connections() {
    let dir = TempDir::new("sigterm");
    let (v1, v2) = fixture(&dir);
    let one_shot = run_ok(&["align", s(&v1), s(&v2)]);
    let daemon =
        Daemon::start(&dir.path("rdf.sock"), &["--threads", "2"]);
    let connect = || {
        let mut conn =
            BufReader::new(UnixStream::connect(&daemon.socket).unwrap());
        // One answered request: the connection has a running handler.
        writeln!(conn.get_mut(), r#"{{"op":"stats"}}"#).unwrap();
        let mut reply = String::new();
        conn.read_line(&mut reply).unwrap();
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        conn
    };
    let mut idle = connect();
    let mut busy = connect();
    writeln!(busy.get_mut(), "{}", align_request(&v1, &v2)).unwrap();

    let (clean, rest) = daemon.terminate();
    assert!(clean, "daemon exited non-zero");
    assert!(rest.contains("shutdown on signal 15"), "got: {rest:?}");
    let mut reply = String::new();
    busy.read_line(&mut reply).unwrap();
    assert_eq!(served(&reply).0, one_shot);
    let mut eof = String::new();
    assert_eq!(idle.read_line(&mut eof).unwrap(), 0, "got {eof:?}");
}

/// A connection whose `stats` request was answered, so its handler is
/// running; the caller keeps it open and idle.
fn answered_conn(socket: &Path) -> BufReader<UnixStream> {
    let mut conn = BufReader::new(UnixStream::connect(socket).unwrap());
    writeln!(conn.get_mut(), r#"{{"op":"stats"}}"#).unwrap();
    let mut reply = String::new();
    conn.read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    conn
}

/// Idle clients hold only their own connections: on a `--threads 2`
/// daemon, two idle clients must not keep a third connection's `stats`
/// from being answered.
#[test]
fn idle_connections_do_not_starve_requests() {
    let dir = TempDir::new("idle");
    let daemon =
        Daemon::start(&dir.path("rdf.sock"), &["--threads", "2"]);
    let idle = [answered_conn(&daemon.socket), answered_conn(&daemon.socket)];

    let mut third = UnixStream::connect(&daemon.socket).unwrap();
    third
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    writeln!(third, r#"{{"op":"stats"}}"#).unwrap();
    let mut reply = String::new();
    let read = BufReader::new(third).read_line(&mut reply);
    assert!(
        matches!(read, Ok(n) if n > 0) && reply.contains(r#""ok":true"#),
        "stats unanswered within 5 s behind two idle clients: {read:?}"
    );
    drop(idle);
    let (clean, _) = daemon.terminate();
    assert!(clean, "daemon exited non-zero");
}

/// With `MAX_CONNECTIONS` idle connections open, the next one gets one
/// `overloaded` line and is closed; once an idle one closes, a new
/// connection is served. At most the cap plus one are ever open.
#[test]
fn connections_past_the_cap_get_overloaded() {
    let cap = rdf_cli::serve::MAX_CONNECTIONS;
    let dir = TempDir::new("cap");
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let mut idle: Vec<_> =
        (0..cap).map(|_| answered_conn(&daemon.socket)).collect();

    let over = UnixStream::connect(&daemon.socket).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut over = BufReader::new(over);
    let mut reply = String::new();
    over.read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""kind":"overloaded""#), "{reply}");
    let mut rest = String::new();
    assert_eq!(over.read_line(&mut rest).unwrap(), 0, "got {rest:?}");
    drop(over);

    // The daemon forgets a connection when its handler sees the close,
    // which the client cannot observe: retry until a slot is free.
    drop(idle.pop());
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let mut conn =
            BufReader::new(UnixStream::connect(&daemon.socket).unwrap());
        // An overloaded connection may be closed before this write
        // lands; its one line is still there to read.
        let _ = writeln!(conn.get_mut(), r#"{{"op":"stats"}}"#);
        let mut reply = String::new();
        conn.read_line(&mut reply).unwrap();
        if reply.contains(r#""ok":true"#) {
            break;
        }
        assert!(reply.contains(r#""kind":"overloaded""#), "{reply}");
        assert!(Instant::now() < deadline, "no slot freed within 20 s");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(idle);
    let (clean, _) = daemon.terminate();
    assert!(clean, "daemon exited non-zero");
}

/// Malformed request lines get a typed JSON `bad_request` error on the
/// same connection — never a dropped connection, never a dead server.
#[test]
fn malformed_lines_get_typed_errors_not_dropped_connections() {
    let dir = TempDir::new("malformed");
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);

    // Three malformed lines then a valid one, all on ONE connection.
    let replies = raw_roundtrips(
        &daemon.socket,
        &[
            "this is not json",
            r#"{"op":"make_coffee"}"#,
            r#"{"op":"align","source":"/x"}"#,
            r#"{"op":"stats"}"#,
        ],
    );
    for bad in &replies[..3] {
        assert!(bad.contains(r#""ok":false"#), "typed error: {bad}");
        assert!(
            bad.contains(r#""kind":"bad_request""#),
            "bad_request kind: {bad}"
        );
    }
    assert!(replies[3].contains(r#""ok":true"#), "{}", replies[3]);

    // A line that is not UTF-8, and a line past the length cap, each
    // followed by a valid request on the same connection.
    let not_utf8 = b"{\"op\":\"stats\xff\"}".to_vec();
    let too_long = vec![b'x'; rdf_cli::serve::MAX_REQUEST_LINE + 1];
    let stats = br#"{"op":"stats"}"#.to_vec();
    let replies = raw_roundtrips(
        &daemon.socket,
        &[not_utf8, stats.clone(), too_long, stats],
    );
    for (bad, what) in [(&replies[0], "UTF-8"), (&replies[2], "longer than")] {
        assert!(
            bad.contains(r#""kind":"bad_request""#) && bad.contains(what),
            "bad_request naming {what}: {bad}"
        );
    }
    for good in [&replies[1], &replies[3]] {
        assert!(good.contains(r#""ok":true"#), "{good}");
    }

    // An engine failure (nonexistent store) is typed too, and the
    // server keeps serving fresh connections afterwards.
    let replies = raw_roundtrips(
        &daemon.socket,
        &[r#"{"op":"info","path":"/nonexistent.rdfb"}"#],
    );
    assert!(replies[0].contains(r#""kind":"engine""#), "{}", replies[0]);
    assert!(
        replies[0].contains("nonexistent.rdfb"),
        "error names the path: {}",
        replies[0]
    );

    // The client maps protocol errors to exit 2 with a `serve <kind>:`
    // prefix.
    let out = Command::new(bin())
        .args(["request", "--socket", daemon.sock(), "not json either"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("serve bad_request:"), "got: {err}");

    let stats =
        run_ok(&["request", "--socket", daemon.sock(), r#"{"op":"stats"}"#]);
    assert!(stats.contains("errors 7"), "errors counted: {stats}");

    // A threshold outside (0, 1] is refused before an input opens.
    for theta in ["0", "-1", "1.5", "1e999"] {
        let req = format!(
            "{{\"op\":\"align\",\"source\":\"/absent1\",\
             \"target\":\"/absent2\",\"method\":\"overlap\",\
             \"theta\":{theta}}}"
        );
        let reply = &raw_roundtrips(&daemon.socket, &[req])[0];
        assert!(
            reply.contains(r#""kind":"engine""#)
                && reply.contains("outside (0, 1]")
                && !reply.contains("absent"),
            "theta {theta}: {reply}"
        );
    }
}

/// `info` over the daemon matches the one-shot CLI byte-for-byte as
/// well (it re-validates checksums on disk every time, by contract).
#[test]
fn served_info_matches_one_shot_cli() {
    let dir = TempDir::new("info");
    let (v1, _) = fixture(&dir);
    let one_shot = run_ok(&["info", s(&v1)]);
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let req = format!(r#"{{"op":"info","path":"{}"}}"#, v1.display());
    let served = run_ok(&["request", "--socket", daemon.sock(), &req]);
    assert_eq!(served, one_shot);

    let (clean, rest) = daemon.terminate();
    assert!(clean);
    assert!(rest.contains("requests served"), "{rest:?}");
}

/// A served traced `import` records the resident-memory gauges at the
/// end of its parse and of the request, and `stats` then reports the
/// daemon's resident and peak resident memory: on Linux, VmHWM ≥ VmRSS
/// > 0 KiB; where `/proc/self/status` does not exist, no memory line.
#[test]
fn stats_reports_resident_memory_after_a_traced_import() {
    let dir = TempDir::new("memory");
    run_ok(&[
        "gen", "--scale", "0.1", "--versions", "1", "--out-dir", s(&dir.0),
    ]);
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let req = format!(
        r#"{{"op":"import","input":"{}","output":"{}","trace":true}}"#,
        dir.path("efo-v1.nt").display(),
        dir.path("v1.rdfb").display()
    );
    let reply = &raw_roundtrips(&daemon.socket, &[req])[0];
    let Response::Ok { trace, .. } = Response::parse(reply).unwrap() else {
        panic!("import failed: {reply}");
    };
    let trace = trace.expect("a traced request returns its trace");
    let report = rdf_obs::RunReport::from_jsonl(&trace).unwrap();
    let stats =
        run_ok(&["request", "--socket", daemon.sock(), r#"{"op":"stats"}"#]);
    let memory = stats.lines().find_map(|l| l.trim().strip_prefix("memory "));
    if cfg!(target_os = "linux") {
        for at in ["parse", "end"] {
            let gauge = format!("rss.{at}.vm_hwm_kib");
            assert!(report.gauge(&gauge) > Some(0), "{gauge}: {trace}");
        }
        let fields: Vec<&str> =
            memory.expect("a memory line").split_whitespace().collect();
        let [_, rss, _, hwm] = fields[..] else {
            panic!("memory line: {stats}");
        };
        let (rss, hwm): (u64, u64) =
            (rss.parse().unwrap(), hwm.parse().unwrap());
        assert!(hwm >= rss && rss > 0, "{stats}");
    } else {
        assert_eq!(memory, None, "{stats}");
    }
    let (clean, _) = daemon.terminate();
    assert!(clean);
}

/// The streaming engine is gone, but the protocol still parses its
/// `streaming` field: `true` on either op gets a typed `bad_request`
/// that says why, over valid inputs, while `false` is still served.
#[test]
fn streaming_requests_get_bad_request() {
    let dir = TempDir::new("streaming");
    let (v1, v2) = fixture(&dir);
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let align = align_request(&v1, &v2);
    let with = |req: &str, value: bool| {
        format!(
            r#"{},"streaming":{value}}}"#,
            req.strip_suffix('}').unwrap()
        )
    };
    let info = format!(r#"{{"op":"info","path":"{}","bisim":true}}"#, v1.display());
    let replies = raw_roundtrips(
        &daemon.socket,
        &[
            &with(&align, true),
            &with(&info, true),
            &with(&align, false),
            &with(&info, false),
        ],
    );
    for bad in &replies[..2] {
        assert!(bad.contains(r#""ok":false"#), "typed error: {bad}");
        assert!(bad.contains(r#""kind":"bad_request""#), "{bad}");
        assert!(bad.contains("streaming was removed"), "{bad}");
    }
    for good in &replies[2..] {
        assert!(good.contains(r#""ok":true"#), "{good}");
    }
}

/// The sharded layout is gone from the daemon too: an `import` that
/// asks for shards is a `bad_request` (nothing is written), and an
/// `align` over a container of a retired kind fails with the path
/// named. Neither costs the connection or the daemon.
#[test]
fn sharded_imports_and_retired_kinds_get_typed_errors() {
    let dir = TempDir::new("retired");
    let (v1, v2) = fixture(&dir);
    let retired = dir.path("kind3.rdfb");
    let mut w = rdf_store::ContainerWriter::new();
    w.section(*b"DICT", vec![0]);
    let mut bytes = Vec::new();
    w.finish(&mut bytes, rdf_store::RETIRED_KINDS[0], [1, 0, 0])
        .unwrap();
    std::fs::write(&retired, bytes).unwrap();
    let out = dir.path("sharded.out");
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let replies = raw_roundtrips(
        &daemon.socket,
        &[
            &format!(
                r#"{{"op":"import","input":"{}","output":"{}","shards":4}}"#,
                dir.path("efo-v1.nt").display(),
                out.display()
            ),
            &align_request(&retired, &v2),
            &align_request(&v1, &v2),
        ],
    );
    assert!(replies[0].contains(r#""kind":"bad_request""#), "{}", replies[0]);
    assert!(
        replies[0].contains("sharded stores were removed"),
        "{}",
        replies[0]
    );
    assert!(!out.exists(), "a rejected import wrote {}", out.display());
    assert!(replies[1].contains(r#""ok":false"#), "{}", replies[1]);
    assert!(
        replies[1].contains(s(&retired)) && replies[1].contains("retired"),
        "{}",
        replies[1]
    );
    assert!(replies[2].contains(r#""ok":true"#), "{}", replies[2]);
}

/// The varint graph-store layout is retired in the daemon too: an
/// `import` asking for `"layout":"varint"` is a `bad_request` (nothing
/// is written) while `"fixed"` is accepted, and `align` or `info` over
/// a version-1 store fails with an `engine` error naming the path.
/// None of it costs the connection or the daemon.
#[test]
fn retired_varint_layout_gets_typed_errors() {
    let dir = TempDir::new("varint");
    let (v1, v2) = fixture(&dir);
    let old = dir.path("old.rdfb");
    std::fs::write(
        &old,
        include_bytes!("../../rdf-store/tests/data/varint-v1.rdfb"),
    )
    .unwrap();
    let import = |layout: &str, out: &Path| {
        format!(
            r#"{{"op":"import","input":"{}","output":"{}","layout":"{}"}}"#,
            dir.path("efo-v1.nt").display(),
            out.display(),
            layout
        )
    };
    let refused = dir.path("varint.rdfb");
    let fixed = dir.path("fixed.rdfb");
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let replies = raw_roundtrips(
        &daemon.socket,
        &[
            &import("varint", &refused),
            &import("fixed", &fixed),
            &align_request(&old, &v2),
            &format!(r#"{{"op":"info","path":"{}"}}"#, old.display()),
            &align_request(&v1, &v2),
        ],
    );
    assert!(replies[0].contains(r#""kind":"bad_request""#), "{}", replies[0]);
    assert!(replies[0].contains("retired"), "{}", replies[0]);
    assert!(!refused.exists(), "a refused import wrote {}", refused.display());
    assert!(replies[1].contains(r#""ok":true"#), "{}", replies[1]);
    assert_eq!(std::fs::read(&fixed).unwrap(), std::fs::read(&v1).unwrap());
    for reply in &replies[2..4] {
        assert!(reply.contains(r#""kind":"engine""#), "{reply}");
        assert!(
            reply.contains(s(&old))
                && reply.contains("varint graph-store layout")
                && reply.contains("retired"),
            "{reply}"
        );
    }
    assert!(replies[4].contains(r#""ok":true"#), "{}", replies[4]);
}

/// A version-2 graph store (its `DICT` in first-use order) is retired
/// in the daemon too: `align` with it on either side and `info`, with
/// or without `bisim`, each get an `engine` error naming the path and
/// saying to re-import, and the same connection then aligns a current
/// pair.
#[test]
fn retired_v2_store_gets_typed_errors() {
    let dir = TempDir::new("retired-v2");
    let (v1, v2) = fixture(&dir);
    let old = dir.path("old.rdfb");
    std::fs::write(
        &old,
        include_bytes!("../../rdf-store/tests/data/fixed-v2.rdfb"),
    )
    .unwrap();
    let daemon = Daemon::start(&dir.path("rdf.sock"), &[]);
    let replies = raw_roundtrips(
        &daemon.socket,
        &[
            &align_request(&old, &v2),
            &align_request(&v1, &old),
            &format!(r#"{{"op":"info","path":"{}"}}"#, old.display()),
            &format!(
                r#"{{"op":"info","path":"{}","bisim":true}}"#,
                old.display()
            ),
            &align_request(&v1, &v2),
        ],
    );
    for reply in &replies[..4] {
        assert!(reply.contains(r#""kind":"engine""#), "{reply}");
        assert!(
            reply.contains(s(&old))
                && reply.contains("container version 2")
                && reply.contains("retired")
                && reply.contains("rdf import"),
            "{reply}"
        );
    }
    assert!(replies[4].contains(r#""ok":true"#), "{}", replies[4]);
}
