//! End-to-end smoke of the real `rdf` binary: gen → import → info →
//! export → align, asserting the CLI's alignment metrics are *identical*
//! to the in-process `pipeline::align` on the same inputs.

use rdf_align::pipeline::{align as pipeline_align, Method};
use rdf_model::Vocab;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rdf")
}

/// Run the binary; return stdout and assert the expected success state.
fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "rdf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn run_err(args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "rdf {args:?} unexpectedly succeeded");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("rdf-cli-{tag}-{}", std::process::id()));
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

/// The metric lines of an alignment report: everything except the
/// source/target path lines, which legitimately differ across input
/// formats (stores vs N-Triples) holding the same graphs.
fn metrics(r: &str) -> Vec<String> {
    r.lines()
        .filter(|l| l.contains(':'))
        .filter(|l| !l.contains("source:") && !l.contains("target:"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn full_pipeline_matches_in_process_alignment() {
    let dir = TempDir::new("pipeline");

    // gen: two EFO-like versions.
    let gen_out = run_ok(&[
        "gen",
        "--scale",
        "0.2",
        "--versions",
        "2",
        "--out-dir",
        s(&dir.0),
    ]);
    assert!(gen_out.contains("efo-v1.nt"));
    let v1_nt = dir.path("efo-v1.nt");
    let v2_nt = dir.path("efo-v2.nt");

    // import both into stores.
    let v1_store = dir.path("v1.rdfb");
    let v2_store = dir.path("v2.rdfb");
    let import_out = run_ok(&["import", s(&v1_nt), s(&v1_store)]);
    assert!(import_out.contains("nodes"));
    run_ok(&["import", s(&v2_nt), s(&v2_store)]);

    // info: validates checksums, reports counts.
    let info_out = run_ok(&["info", s(&v1_store)]);
    assert!(info_out.contains("checksums OK"));
    assert!(info_out.contains("graph store"));
    for tag in ["DICT", "NODE", "TRPL", "BNAM"] {
        assert!(info_out.contains(tag), "info lists section {tag}");
    }

    // export: canonical N-Triples out of the store equals the canonical
    // serialisation of the original file's parse.
    let v1_back = dir.path("v1-back.nt");
    run_ok(&["export", s(&v1_store), s(&v1_back)]);
    let mut vfresh = Vocab::new();
    let parsed = rdf_io::load_file(&v1_nt, &mut vfresh).unwrap();
    assert_eq!(
        std::fs::read_to_string(&v1_back).unwrap(),
        rdf_io::write_graph(&parsed, &vfresh),
        "export(import(x)) is the canonical form of x"
    );

    // align from the stores, via the binary.
    let cli_report =
        run_ok(&["align", "--method", "hybrid", s(&v1_store), s(&v2_store)]);
    assert!(!cli_report.trim().is_empty());

    // The same alignment in-process, from the original N-Triples.
    let mut vocab = Vocab::new();
    let g1 = rdf_io::load_file(&v1_nt, &mut vocab).unwrap();
    let g2 = rdf_io::load_file(&v2_nt, &mut vocab).unwrap();
    let a = pipeline_align(&vocab, &g1, &g2, Method::Hybrid);

    // Metrics in the CLI report must match the in-process run exactly.
    let expect = [
        format!(
            "aligned edge ratio    : {:.6} ({} / {} classes, {} common)",
            a.edges.ratio(),
            a.edges.source_classes,
            a.edges.target_classes,
            a.edges.common_classes
        ),
        format!(
            "aligned edge instances: {} (source {}/{}, target {}/{})",
            a.edges.aligned_instances(),
            a.edges.aligned_source_edges,
            a.edges.total_source_edges,
            a.edges.aligned_target_edges,
            a.edges.total_target_edges
        ),
        format!("aligned node classes  : {}", a.nodes.aligned_classes),
        format!("unaligned nodes       : {}", a.unaligned.len()),
    ];
    for line in &expect {
        assert!(
            cli_report.contains(line),
            "CLI report must contain {line:?}\n--- report ---\n{cli_report}"
        );
    }

    // And the binary's stdout is exactly the library render.
    let outcome = rdf_cli::align(
        &v1_store,
        &v2_store,
        "hybrid",
        None,
        rdf_align::Threads::Auto,
    )
    .unwrap();
    assert_eq!(cli_report, outcome.render());

    // Determinism across thread counts: the engine guarantees the
    // report is byte-identical at --threads 1 and --threads 4.
    let t1 = run_ok(&[
        "align", "--method", "hybrid", "--threads", "1",
        s(&v1_store), s(&v2_store),
    ]);
    let t4 = run_ok(&[
        "align", "--method", "hybrid", "--threads", "4",
        s(&v1_store), s(&v2_store),
    ]);
    assert_eq!(t1, t4, "thread count changed the alignment report");
    assert_eq!(t1, cli_report, "threaded run diverged from default run");

    // info --bisim reports the maximal-bisimulation summary, and it is
    // identical at every thread count too.
    let bisim1 = run_ok(&["info", "--bisim", "--threads", "1", s(&v1_store)]);
    let bisim4 = run_ok(&["info", "--bisim", "--threads", "4", s(&v1_store)]);
    assert!(bisim1.contains("bisimulation:"), "got: {bisim1}");
    assert!(bisim1.contains("(1 threads)"));
    assert!(bisim4.contains("(4 threads)"));
    // Compare whole reports with only the "(N threads)" suffix removed,
    // so the bisimulation class/round counts themselves must agree.
    let strip = |r: &str| {
        r.lines()
            .map(|l| {
                l.trim_end_matches(" (1 threads)")
                    .trim_end_matches(" (4 threads)")
                    .to_owned()
            })
            .collect::<Vec<_>>()
    };
    let (s1, s4) = (strip(&bisim1), strip(&bisim4));
    assert!(
        s1.iter().any(|l| l.contains("bisimulation:")),
        "strip removed the bisimulation line: {s1:?}"
    );
    assert_eq!(s1, s4);

    // Aligning the raw N-Triples gives the same metrics as the stores
    // (only the input paths in the heading differ).
    let nt_report =
        run_ok(&["align", "--method", "hybrid", s(&v1_nt), s(&v2_nt)]);
    assert_eq!(metrics(&cli_report), metrics(&nt_report));
}

/// A version-1 graph store written by the retired varint writer.
const VARINT_V1_STORE: &[u8] =
    include_bytes!("../../rdf-store/tests/data/varint-v1.rdfb");

/// The fixed layout is the only graph-store layout: plain `import`
/// writes it, byte-identical to `import --layout fixed`, while
/// `--layout varint` is refused (exit 2, nothing written). A version-1
/// store — the retired varint layout — is refused by every command
/// that reads a store, with its path named, exit 2 and no panic.
#[test]
fn retired_varint_layout_fails_with_the_path_named() {
    let dir = TempDir::new("layouts");
    let nt = dir.path("x.nt");
    std::fs::write(
        &nt,
        "<u:s> <u:p> <u:o> .\n<u:s> <u:q> _:b1 .\n_:b1 <u:p> \"lit\" .\n",
    )
    .unwrap();
    let plain = dir.path("plain.rdfb");
    let fixed = dir.path("fixed.rdfb");
    run_ok(&["import", s(&nt), s(&plain)]);
    run_ok(&["import", "--layout", "fixed", s(&nt), s(&fixed)]);
    assert_eq!(std::fs::read(&plain).unwrap(), std::fs::read(&fixed).unwrap());
    let info_out = run_ok(&["info", s(&plain)]);
    assert!(info_out.contains("RDFB v2 graph store"), "got: {info_out}");
    assert!(info_out.contains("layout fixed"), "got: {info_out}");

    let varint = dir.path("varint.rdfb");
    let out = Command::new(bin())
        .args(["import", "--layout", "varint", s(&nt), s(&varint)])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "got: {err}");
    assert!(err.contains("varint") && err.contains("retired"), "got: {err}");
    assert!(!varint.exists(), "a refused import wrote {}", varint.display());

    let v1 = dir.path("v1.rdfb");
    std::fs::write(&v1, VARINT_V1_STORE).unwrap();
    let out_nt = dir.path("out.nt");
    for args in [
        vec!["align", s(&v1), s(&plain)],
        vec!["align", s(&plain), s(&v1)],
        vec!["info", "--bisim", s(&v1)],
        vec!["info", s(&v1)],
        vec!["export", s(&v1), s(&out_nt)],
    ] {
        let out = Command::new(bin())
            .args(&args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "rdf {args:?}: {err}");
        assert!(
            err.contains(s(&v1))
                && err.contains("varint graph-store layout")
                && err.contains("retired"),
            "rdf {args:?}: got {err}"
        );
        assert!(!err.contains("panicked"), "rdf {args:?}: got {err}");
    }
    assert!(!out_nt.exists(), "export wrote output for a version-1 store");
}

/// Content kinds 3 and 4 belonged to the retired sharded layout. A
/// container carrying either is refused by every command that reads a
/// store — one-shot and served — with an error naming the path, a
/// non-zero exit and no panic.
#[test]
fn retired_store_kinds_fail_with_the_path_named() {
    let dir = TempDir::new("retired");
    let nt = dir.path("x.nt");
    std::fs::write(&nt, "<u:s> <u:p> <u:o> .\n").unwrap();
    for kind in rdf_store::RETIRED_KINDS {
        let path = dir.path(&format!("kind{kind}.rdfb"));
        let mut w = rdf_store::ContainerWriter::new();
        w.section(*b"DICT", vec![0]);
        let mut bytes = Vec::new();
        w.finish(&mut bytes, kind, [1, 0, 0]).unwrap();
        std::fs::write(&path, bytes).unwrap();
        let out_nt = dir.path("out.nt");
        for args in [
            vec!["align", s(&path), s(&nt)],
            vec!["align", s(&nt), s(&path)],
            vec!["info", "--bisim", s(&path)],
            vec!["info", s(&path)],
            vec!["export", s(&path), s(&out_nt)],
        ] {
            let out = Command::new(bin())
                .args(&args)
                .output()
                .expect("binary runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "rdf {args:?}: {err}");
            assert!(
                err.contains(s(&path)) && err.contains("retired"),
                "rdf {args:?}: got {err}"
            );
            assert!(!err.contains("panicked"), "rdf {args:?}: got {err}");
        }
        assert!(!out_nt.exists(), "export wrote output for kind {kind}");
    }
}

#[test]
fn align_supports_all_methods() {
    let dir = TempDir::new("methods");
    run_ok(&[
        "gen",
        "--scale",
        "0.1",
        "--versions",
        "2",
        "--out-dir",
        s(&dir.0),
    ]);
    let v1 = dir.path("efo-v1.nt");
    let v2 = dir.path("efo-v2.nt");
    for method in ["trivial", "deblank", "hybrid", "overlap"] {
        let report = run_ok(&["align", "--method", method, s(&v1), s(&v2)]);
        assert!(report.contains(&format!("method = {method}")));
    }
    let report = run_ok(&[
        "align",
        "--method",
        "overlap",
        "--theta",
        "0.5",
        s(&v1),
        s(&v2),
    ]);
    assert!(report.contains("aligned edge ratio"));
}

/// `--verify` certifies every refinement fixpoint without changing a
/// byte of output: deblank and hybrid at 1 and 4 threads, and
/// `info --bisim`. With trivial or overlap it is a usage error (exit
/// 2), and so is `info --verify` without `--bisim`.
#[test]
fn verify_certifies_without_changing_output() {
    let dir = TempDir::new("verify");
    run_ok(&[
        "gen",
        "--scale",
        "0.1",
        "--versions",
        "2",
        "--out-dir",
        s(&dir.0),
    ]);
    let (v1, v2) = (dir.path("v1.rdfb"), dir.path("v2.rdfb"));
    run_ok(&["import", s(&dir.path("efo-v1.nt")), s(&v1)]);
    run_ok(&["import", s(&dir.path("efo-v2.nt")), s(&v2)]);
    for method in ["deblank", "hybrid"] {
        for threads in ["1", "4"] {
            let align = |extra: &[&str]| {
                let mut args =
                    vec!["align", "--method", method, "--threads", threads];
                args.extend(extra);
                args.extend([s(&v1), s(&v2)]);
                run_ok(&args)
            };
            let verified = align(&["--verify"]);
            assert_eq!(align(&[]), verified, "{method} t{threads}");
        }
    }
    assert_eq!(
        run_ok(&["info", "--bisim", s(&v1)]),
        run_ok(&["info", "--bisim", "--verify", s(&v1)])
    );
    let usage = |args: &[&str], message: &str| {
        let out =
            Command::new(bin()).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "rdf {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "rdf {args:?}: {err}");
    };
    for method in ["trivial", "overlap"] {
        usage(
            &["align", "--method", method, "--verify", s(&v1), s(&v2)],
            "--verify needs --method deblank or hybrid",
        );
    }
    usage(&["info", "--verify", s(&v1)], "--verify needs --bisim");
}

/// The EXAMPLES blocks in `--help` cannot rot: the top-level examples
/// are extracted from the real help text and *executed* in order
/// (paths redirected into a temp dir), and every subcommand's help
/// must carry its own EXAMPLES block addressing that subcommand.
#[test]
fn help_examples_execute_and_cover_every_subcommand() {
    let dir = TempDir::new("help");
    let help = run_ok(&["--help"]);
    assert!(help.contains("EXAMPLES"), "top-level help has EXAMPLES");

    // Every example line is a real `rdf` invocation; run them in order
    // with /tmp/efo swapped for this test's temp dir.
    let examples: Vec<Vec<String>> = help
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("rdf "))
        .map(|l| {
            l.replace("/tmp/efo", s(&dir.0))
                .split_whitespace()
                .skip(1) // the leading "rdf"
                .map(str::to_owned)
                .collect()
        })
        .collect();
    assert!(
        examples.len() >= 4,
        "expected a multi-step example pipeline, got {examples:?}"
    );
    for args in &examples {
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = run_ok(&argv);
        assert!(!out.is_empty(), "example `rdf {args:?}` printed nothing");
    }
    // The advertised pipeline really wrote fixed-layout stores.
    let info_out = run_ok(&["info", s(&dir.path("v1.rdfb"))]);
    assert!(
        info_out.contains("layout fixed"),
        "the example imports should write the fixed layout: {info_out}"
    );

    // Per-subcommand help: an EXAMPLES block that addresses the
    // subcommand itself.
    for cmd in [
        "import", "export", "info", "align", "stats", "gen", "serve",
        "request",
    ] {
        let h = run_ok(&[cmd, "--help"]);
        assert!(h.contains("EXAMPLES"), "{cmd} --help has EXAMPLES");
        assert!(
            h.contains(&format!("rdf {cmd}")),
            "{cmd} --help examples address rdf {cmd}: {h}"
        );
        assert!(
            h.contains(&format!("usage: rdf {cmd}")),
            "{cmd} --help leads with usage: {h}"
        );
    }
}

/// `--trace` is a pure side channel: the report is byte-identical with
/// and without it, every trace line is valid JSON with the required
/// keys, and `rdf stats` renders the span families by name. `RDF_TRACE`
/// traces without the flag.
#[test]
fn trace_and_stats_cover_span_families() {
    let dir = TempDir::new("trace");
    run_ok(&[
        "gen",
        "--scale",
        "0.15",
        "--versions",
        "2",
        "--out-dir",
        s(&dir.0),
    ]);
    let v1 = dir.path("v1.rdfb");
    let v2 = dir.path("v2.rdfb");
    run_ok(&["import", s(&dir.path("efo-v1.nt")), s(&v1)]);
    run_ok(&["import", s(&dir.path("efo-v2.nt")), s(&v2)]);

    // Traced and untraced runs print byte-identical reports.
    let untraced = run_ok(&["align", "--method", "hybrid", s(&v1), s(&v2)]);
    let trace = dir.path("t.jsonl");
    let traced = run_ok(&[
        "align", "--method", "hybrid", "--trace", s(&trace),
        s(&v1), s(&v2),
    ]);
    assert_eq!(untraced, traced, "--trace changed the report");

    // Every trace line is one JSON object carrying the required keys.
    let text = std::fs::read_to_string(&trace).unwrap();
    let mut spans = 0usize;
    let mut reports = 0usize;
    for (i, line) in text.lines().enumerate() {
        let j = rdf_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("line {}: {e:?}", i + 1));
        match j.get("ev").and_then(|v| v.as_str()) {
            Some("span") => {
                assert!(j.get("name").is_some(), "span without name");
                assert!(j.get("us").is_some(), "span without us");
                spans += 1;
            }
            Some("report") => reports += 1,
            other => panic!("line {}: unexpected ev {other:?}", i + 1),
        }
    }
    assert!(spans > 0, "trace carries span events");
    assert_eq!(reports, 1, "exactly one final report line");

    // Each store's DICT is interned into the session vocabulary, and
    // its span counts the labels that were new and those already
    // there: none for v1 (the session starts empty), most for v2.
    let joins: Vec<(u64, u64)> = text
        .lines()
        .map(|l| rdf_obs::json::parse(l).unwrap())
        .filter(|j| {
            j.get("name").and_then(|v| v.as_str()) == Some("store.section")
                && j.get("section").and_then(|v| v.as_str()) == Some("DICT")
        })
        .map(|j| {
            let field = |k| j.get(k).and_then(|v| v.as_u64()).unwrap();
            (field("labels_new"), field("labels_shared"))
        })
        .collect();
    assert_eq!(joins.len(), 2, "one DICT span per store");
    assert!(joins[0].0 > 0 && joins[0].1 == 0, "v1 join: {:?}", joins[0]);
    assert!(joins[1].1 > joins[1].0, "v2 join: {:?}", joins[1]);

    // stats aggregates the trace and names the span families.
    let stats_out = run_ok(&["stats", s(&trace)]);
    for family in
        ["refine.round", "store.section", "align.union", "align.method"]
    {
        assert!(
            stats_out.contains(family),
            "stats table misses {family}:\n{stats_out}"
        );
    }
    // One align.method span per alignment, naming the method.
    let methods: Vec<String> = text
        .lines()
        .map(|l| rdf_obs::json::parse(l).unwrap())
        .filter(|j| {
            j.get("name").and_then(|v| v.as_str()) == Some("align.method")
        })
        .map(|j| j.get("method").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(methods, ["hybrid"], "align.method spans");

    // The report line alone must agree with re-aggregating the events.
    let report = rdf_obs::RunReport::from_jsonl(&text).unwrap();
    assert!(report.span("refine.round").is_some());
    assert!(report.span("store.section").is_some());

    // RDF_TRACE traces without the flag, through the same machinery.
    let trace_env = dir.path("env.jsonl");
    let out = Command::new(bin())
        .args(["info", "--bisim", s(&v1)])
        .env("RDF_TRACE", &trace_env)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(trace_env.exists(), "RDF_TRACE wrote no trace");
    let env_stats = run_ok(&["stats", s(&trace_env)]);
    assert!(env_stats.contains("refine.round"), "got: {env_stats}");
    assert!(env_stats.contains("store.section"), "got: {env_stats}");

    // A malformed trace is a loud, contextful error.
    let bad = dir.path("bad.jsonl");
    std::fs::write(&bad, "{\"ev\":\"span\"\n").unwrap();
    let err = run_err(&["stats", s(&bad)]);
    assert!(err.contains("bad.jsonl"), "got: {err}");
}

#[test]
fn errors_exit_nonzero_with_context() {
    let dir = TempDir::new("errors");
    // Missing file.
    let err = run_err(&["info", s(&dir.path("absent.rdfb"))]);
    assert!(err.contains("absent.rdfb"));
    // Not a store.
    let nt = dir.path("x.nt");
    std::fs::write(&nt, "<u:s> <u:p> <u:o> .\n").unwrap();
    let err = run_err(&["info", s(&nt)]);
    assert!(err.contains("RDFB") || err.contains("magic"));
    // Corrupt store: flip a payload byte.
    let store = dir.path("x.rdfb");
    run_ok(&["import", s(&nt), s(&store)]);
    let mut bytes = std::fs::read(&store).unwrap();
    let at = rdf_store::container::HEADER_LEN
        + rdf_store::container::SECTION_OVERHEAD
        + 1;
    bytes[at] ^= 0xff;
    std::fs::write(&store, bytes).unwrap();
    let err = run_err(&["info", s(&store)]);
    assert!(err.contains("checksum"), "got: {err}");
    // Unknown method.
    let err = run_err(&["align", "--method", "psychic", s(&nt), s(&nt)]);
    assert!(err.contains("unknown method"));
    // Thresholds outside (0, 1], refused before an input opens.
    let absent = dir.path("absent.rdfb");
    for theta in ["nan", "0", "-1", "1.5", "inf"] {
        let args = ["align", "--method", "overlap", "--theta", theta];
        let err = run_err(&[&args[..], &[s(&absent), s(&absent)]].concat());
        assert!(err.contains("outside (0, 1]"), "{theta}: {err}");
    }
    // Scales that generate nothing.
    for scale in ["0", "-1", "nan", "inf"] {
        let out = dir.path("gen");
        let err = run_err(&["gen", "--scale", scale, "--out-dir", s(&out)]);
        assert!(err.contains("--scale"), "{scale}: {err}");
        assert!(!out.exists(), "{scale}: wrote {}", out.display());
    }
    // Invalid thread counts.
    let err = run_err(&["align", "--threads", "0", s(&nt), s(&nt)]);
    assert!(err.contains("invalid thread count"), "got: {err}");
    let err = run_err(&["info", "--threads", "zippy", s(&nt)]);
    assert!(err.contains("invalid thread count"), "got: {err}");
    // Malformed N-Triples reports position.
    let bad = dir.path("bad.nt");
    std::fs::write(&bad, "<u:s> <u:p> broken .\n").unwrap();
    let err = run_err(&["import", s(&bad), s(&dir.path("bad.rdfb"))]);
    assert!(err.contains("line 1"), "got: {err}");
}

/// A failed import over an existing store leaves it byte-identical:
/// the new store is written beside it and renamed into place only on
/// success, and the temporary file is removed either way.
#[test]
fn failed_import_leaves_existing_store_intact() {
    let dir = TempDir::new("atomic-import");
    let good = dir.path("good.nt");
    std::fs::write(&good, "<u:s> <u:p> \"o\" .\n<u:s> <u:q> <u:t> .\n").unwrap();
    let store = dir.path("out.rdfb");
    run_ok(&["import", s(&good), s(&store)]);
    let before = std::fs::read(&store).unwrap();

    let bad = dir.path("bad.nt");
    std::fs::write(&bad, "<u:s> <u:p> <u:o> .\n<u:s> <u:p> broken .\n").unwrap();
    let err = run_err(&["import", s(&bad), s(&store)]);
    assert!(err.contains("line 2"), "got: {err}");
    assert_eq!(std::fs::read(&store).unwrap(), before);
    run_ok(&["info", s(&store)]);

    // A successful re-import replaces the store in place.
    run_ok(&["import", s(&good), s(&store)]);
    assert_eq!(std::fs::read(&store).unwrap(), before);

    let mut names: Vec<String> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["bad.nt", "good.nt", "out.rdfb"]);
}

/// A mistyped or retired flag is an error naming the flag and the
/// command (exit 2) — never an input path that surfaces later as a
/// confusing argument-count error. The retired `--streaming` and
/// `--shards` flags take the same path.
#[test]
fn unknown_flags_are_rejected_not_read_as_paths() {
    for (args, flag, cmd) in [
        (vec!["align", "--thread", "1", "a.rdfb", "b.rdfb"], "--thread", "align"),
        (vec!["align", "--streaming", "a.rdfb", "b.rdfb"], "--streaming", "align"),
        (vec!["info", "--bsim", "x.rdfb"], "--bsim", "info"),
        (vec!["info", "--bisim", "--streaming", "x.rdfb"], "--streaming", "info"),
        (vec!["import", "--layot", "fixed", "x.nt", "y"], "--layot", "import"),
        (vec!["import", "--shards", "4", "x.nt", "y"], "--shards", "import"),
        (vec!["export", "--shards", "2", "x.rdfb", "y"], "--shards", "export"),
        (vec!["stats", "--json"], "--json", "stats"),
        (vec!["gen", "--scal", "1", "--out-dir", "d"], "--scal", "gen"),
        (vec!["serve", "--cache", "1"], "--cache", "serve"),
        (vec!["serve", "--cache-bytes", "1"], "--cache-bytes", "serve"),
        (vec!["request", "--sock", "s", "{}"], "--sock", "request"),
    ] {
        let out = Command::new(bin())
            .args(&args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "rdf {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag {flag} for {cmd}")),
            "rdf {args:?}: got {err}"
        );
    }
}

/// A `--threads` count above `rdf_par::MAX_THREADS` fails before any
/// input is opened: exit 2, with the flag named.
#[test]
fn thread_counts_above_the_bound_are_refused() {
    for args in [
        vec!["info", "--bisim", "--threads", "100000", "missing.rdfb"],
        vec!["align", "--threads", "100000", "a.rdfb", "b.rdfb"],
    ] {
        let out = Command::new(bin())
            .args(&args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "rdf {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--threads"), "rdf {args:?}: got {err}");
        assert!(!err.contains(".rdfb"), "rdf {args:?}: got {err}");
    }
}

#[test]
fn import_rejects_archive_containers() {
    let dir = TempDir::new("kind");
    // Build an archive container and try to export it as a graph.
    let vocab = Vocab::new();
    let archive = rdf_archive::Archive::new();
    rdf_archive::save_archive_file(dir.path("a.rdfb"), &vocab, &archive)
        .unwrap();
    let err = run_err(&[
        "export",
        s(&dir.path("a.rdfb")),
        s(&dir.path("a.nt")),
    ]);
    assert!(err.contains("content kind"), "got: {err}");
    // But info understands it: archives stay container version 1,
    // whose graph-store counterpart is retired.
    let info_out = run_ok(&["info", s(&dir.path("a.rdfb"))]);
    assert!(info_out.contains("RDFB v1 archive"), "got: {info_out}");
    assert!(!info_out.contains("load mode"), "got: {info_out}");
    // --bisim degrades gracefully on non-graph stores.
    let info_out =
        run_ok(&["info", "--bisim", s(&dir.path("a.rdfb"))]);
    assert!(info_out.contains("bisimulation: n/a"), "got: {info_out}");
}

/// An unwritable `--trace` path fails *eagerly*: the error names the
/// trace file and arrives before any input is touched — even when the
/// input path is also bogus, the trace path is the one reported.
#[test]
fn trace_file_failures_are_eager_and_name_the_trace_path() {
    let dir = TempDir::new("tracefail");
    let bad_trace = dir.path("no-such-dir").join("t.jsonl");
    let bad_store = dir.path("also-absent.rdfb");
    for cmd in [
        vec!["info", "--trace", s(&bad_trace), s(&bad_store)],
        vec![
            "align", "--trace", s(&bad_trace),
            s(&bad_store), s(&bad_store),
        ],
        vec![
            "import", "--trace", s(&bad_trace),
            s(&bad_store), s(&dir.path("out.rdfb")),
        ],
    ] {
        let err = run_err(&cmd);
        assert!(
            err.contains("trace file") && err.contains("t.jsonl"),
            "{cmd:?}: error must name the trace file, got: {err}"
        );
        assert!(
            !err.contains("also-absent.rdfb"),
            "{cmd:?}: trace error must come before input access: {err}"
        );
    }
    // Same contract through RDF_TRACE.
    let out = Command::new(bin())
        .args(["info", s(&bad_store)])
        .env("RDF_TRACE", &bad_trace)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace file"), "got: {err}");
}

/// The README's `rdf serve` example block cannot rot: its lines are
/// extracted from README.md and executed verbatim (paths redirected
/// into a temp dir), asserting the served align report matches the
/// one-shot CLI byte-for-byte.
#[test]
fn readme_serve_example_block_executes() {
    use std::io::BufRead;

    let readme = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md"),
    )
    .expect("README.md at the repo root");
    let lines: Vec<&str> = readme
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("target/release/rdf "))
        .filter(|l| l.contains(" serve ") || l.contains(" request "))
        .collect();
    assert!(
        lines.iter().any(|l| l.contains(" serve ")),
        "README shows an `rdf serve` line"
    );
    assert!(
        lines.iter().filter(|l| l.contains(" request ")).count() >= 2,
        "README shows `rdf request` usage: {lines:?}"
    );
    assert!(
        readme.contains("kill %1"),
        "README shows the SIGTERM shutdown step"
    );

    // Build the fixture stores the example block refers to, with
    // /tmp/efo and /tmp/rdf.sock redirected into this test's temp dir.
    let dir = TempDir::new("readme-serve");
    run_ok(&[
        "gen", "--scale", "0.1", "--versions", "2", "--out-dir", s(&dir.0),
    ]);
    run_ok(&[
        "import",
        s(&dir.path("efo-v1.nt")),
        s(&dir.path("v1.rdfb")),
    ]);
    run_ok(&[
        "import",
        s(&dir.path("efo-v2.nt")),
        s(&dir.path("v2.rdfb")),
    ]);
    let redirect = |l: &str| -> Vec<String> {
        l.trim_start_matches("target/release/")
            .trim_end_matches('&')
            .trim()
            .replace("/tmp/efo", s(&dir.0))
            .replace("/tmp/rdf.sock", s(&dir.path("rdf.sock")))
            // The request payload is a single-quoted JSON argument;
            // undo the shell quoting for Command's argv.
            .split('\'')
            .enumerate()
            .flat_map(|(i, part)| {
                if i % 2 == 1 {
                    vec![part.to_string()]
                } else {
                    part.split_whitespace()
                        .map(str::to_string)
                        .collect()
                }
            })
            .filter(|a| !a.is_empty())
            .collect()
    };

    // Line 1: the daemon (README backgrounds it with `&`).
    let serve_argv = redirect(lines[0]);
    assert_eq!(serve_argv[1], "serve", "first line starts the daemon");
    let mut daemon = Command::new(bin())
        .args(&serve_argv[1..])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut ready = String::new();
    std::io::BufReader::new(daemon.stdout.as_mut().unwrap())
        .read_line(&mut ready)
        .unwrap();
    assert!(ready.contains("listening"), "got: {ready:?}");

    // Remaining lines: the clients, verbatim.
    let mut align_report = None;
    for line in &lines[1..] {
        let argv = redirect(line);
        let args: Vec<&str> =
            argv[1..].iter().map(String::as_str).collect();
        let out = run_ok(&args);
        assert!(!out.is_empty(), "`{line}` printed nothing");
        if line.contains(r#""op":"align""#) {
            align_report = Some(out);
        }
    }
    // The served report equals the one-shot CLI's, byte for byte.
    let one_shot = run_ok(&[
        "align",
        s(&dir.path("v1.rdfb")),
        s(&dir.path("v2.rdfb")),
    ]);
    assert_eq!(align_report.as_deref(), Some(one_shot.as_str()));

    // `kill %1` in the README: SIGTERM, clean exit.
    let killed = Command::new("kill")
        .arg("-TERM")
        .arg(daemon.id().to_string())
        .status()
        .unwrap()
        .success();
    assert!(killed);
    assert!(daemon.wait().unwrap().success(), "daemon exits 0");
}
