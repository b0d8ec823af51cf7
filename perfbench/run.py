#!/usr/bin/env python3
"""The repository's benchmark (see perfbench/README.md).

Generates a seeded scale-400 EFO version pair, imports it with the
release `rdf` binary, runs one closed-loop workload for a timed window,
checks every output, and prints each metric by name with its unit. The
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload align-oneshot --seed 3824 \\
      --seconds 20 --trace 0
  python3 perfbench/run.py --workload serve-mix --trace 1
  python3 perfbench/run.py --steady 5 --workload serve-mix

`--trace 0` reports the end-to-end metrics; `--trace 1` shortens the
window and adds the traced in-process layer pass, reporting per-layer
metrics. `--steady N` repeats one workload N times on consecutive seeds
and prints each metric's median and interquartile spread.
"""

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# `rdf gen`'s seed; golden.json holds digests for it at scale 400.
DEFAULT_SEED = 0xEF0
DEFAULT_SCALE = 400.0
# One child op or request taking longer than this is a hang.
OP_TIMEOUT_S = 150.0

WORKLOADS = ("align-oneshot", "serve-mix")
VERSIONS = ("v1", "v2")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "align_p50_ms": "ms",
    "ingest_p50_ms": "ms",
    "peak_rss_mib": "MiB",
    "cpu_s_per_op": "s",
    "store_bytes_ratio": "ratio",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "cli.sniff_ms": "ms",
    "cli.render_ms": "ms",
    "cli.teardown_ms": "ms",
    "store.read_ms": "ms",
    "store.decode_ms": "ms",
    "store.dict_ms": "ms",
    "store.view_ms": "ms",
    "store.import_ms": "ms",
    "io.parse_ms": "ms",
    "io.parse_mb_per_s": "MB/s",
    "model.rebase_ms": "ms",
    "model.union_ms": "ms",
    "model.labels": "count",
    "align.refine_ms": "ms",
    "align.refine_rounds": "count",
    "align.overlap_ms": "ms",
    "align.overlap_rounds": "count",
    "align.overlap_candidates": "count",
    "align.overlap_confirmed": "count",
    "align.overlap_confirm_ratio": "ratio",
    "align.metrics_ms": "ms",
    "align.bisim_ms": "ms",
    "align.bisim_rounds": "count",
    "par.overlap_t1_over_t2": "ratio",
    "serve.cold_align_ms": "ms",
    "serve.handle_align_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.hits": "count",
    "serve.misses": "count",
    "serve.hit_ratio": "ratio",
    "serve.protocol_us": "us",
    "mem.load_mib": "MiB",
    "mem.union_mib": "MiB",
    "mem.refine_mib": "MiB",
    "mem.peak_mib": "MiB",
    "unattributed_ms": "ms",
    "trace_overhead_pct": "%",
}


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- build


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Build the `rdf` binary and the harness from this checkout's source."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} holds no cargo workspace to benchmark")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    manifest = str(HERE / "harness" / "Cargo.toml")
    for cmd in (
        ["cargo", "build", "-q", "--release", "--offline", "-p", "rdf-cli", "--bin", "rdf"],
        ["cargo", "build", "-q", "--release", "--offline", "--manifest-path", manifest],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return str(release / "rdf"), str(release / "perfbench-harness")


# ---------------------------------------------------------------- children


@dataclass
class Child:
    code: int
    ms: float
    cpu_s: float
    rss_mib: float
    out: str


def run_child(argv, cwd):
    """Run one child to completion: its wall time, rusage and stdout."""
    err_path = Path(cwd) / "stderr.log"
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        p = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
    killer = threading.Timer(OP_TIMEOUT_S, p.kill)
    killer.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    ms = (time.perf_counter() - start) * 1e3
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        log(f"{' '.join(argv)}: exit {p.returncode}: "
            f"{err_path.read_text(errors='replace').strip()[-500:]}")
    return Child(p.returncode, ms, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss / 1024.0, out.decode("utf-8", "replace"))


def harness_json(harness, args, cwd):
    r = run_child([harness, *args], cwd)
    if r.code != 0:
        raise BenchError(f"harness {args[0]} failed")
    return json.loads(r.out.strip().splitlines()[-1])


# ---------------------------------------------------------------- checks


class Checker:
    """Judges every output. A report must be well formed, carry the
    generated node and triple counts, match its golden digest on the
    default seed, and equal every other report of its kind in the run
    byte for byte (the determinism contract)."""

    def __init__(self, counts, golden):
        self.counts = counts
        self.golden = golden
        self.reference = {}
        self.digests = {}

    def same(self, kind, text):
        digest = sha(text)
        self.digests.setdefault(kind, digest)
        if kind in self.golden and self.golden[kind] != digest:
            return False
        return self.reference.setdefault(kind, text) == text

    def align_report(self, text):
        want = ["alignment report (method = hybrid)"]
        for side, v in zip(("source", "target"), VERSIONS):
            c = self.counts[v]
            want.append(f"  {side}: {v}.rdfb (nodes {c['nodes']}, "
                        f"triples {c['triples']})")
        return (text.splitlines()[:3] == want and "aligned edge ratio" in text
                and self.same("align-hybrid", text))

    def bisim_line(self, version, report):
        line = next((l for l in report.splitlines() if "bisimulation:" in l), "")
        nodes = self.counts[version]["nodes"]
        return (f"classes / {nodes} nodes in " in line
                and self.same(f"bisim-{version}", line))

    def import_report(self, version, report):
        c = self.counts[version]
        return f"nodes {c['nodes']} triples {c['triples']}" in report


def golden_for(seed, scale):
    if seed != DEFAULT_SEED or scale != DEFAULT_SCALE:
        return {}
    return json.loads((HERE / "golden.json").read_text())


def bytes_ratio(import_report):
    m = re.search(r"(\d+) bytes -> (\d+) bytes", import_report)
    return int(m.group(2)) / int(m.group(1))


# ---------------------------------------------------------------- serve


class Conn:
    """One client connection to `rdf serve`: a line out, a line back."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(OP_TIMEOUT_S)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def request(self, obj):
        """Latency in ms and the decoded response; a broken connection
        or an unreadable reply is a failed response."""
        start = time.perf_counter()
        try:
            self.file.write((json.dumps(obj) + "\n").encode())
            self.file.flush()
            resp = json.loads(self.file.readline() or "{}")
        except (OSError, ValueError) as e:
            log(f"serve request {obj['op']}: {e}")
            resp = {}
        return (time.perf_counter() - start) * 1e3, resp

    def close(self):
        self.file.close()
        self.sock.close()


class Daemon:
    """`rdf serve --threads 2` on a unix socket in the fixture directory."""

    def __init__(self, rdf, fx):
        self.proc = subprocess.Popen(
            [rdf, "serve", "--socket", "rdf.sock", "--threads", "2"],
            cwd=fx, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        started, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
        ready = self.proc.stdout.readline().decode() if started else ""
        if "listening" not in ready:
            self.stop()
            raise BenchError(f"rdf serve did not start: {ready!r}")

    def status_mib(self, field):
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(rf"^{field}:\s+(\d+) kB", text, re.M).group(1)) / 1024.0

    def cpu_s(self):
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------- workloads


@dataclass
class Outcome:
    setup_s: float
    align_ms: list
    ingest_ms: list
    ok: int
    attempted: int
    # timed seconds, summed over both halves of the window, each until
    # its last op ended
    window_s: float
    cpu_s: float
    peak_rss_mib: float
    bytes_ratio: float
    # untraced one-shot align latency
    oneshot_ms: float


def import_stores(rdf, fx, check):
    """One setup pass: `rdf import --layout fixed` of both versions,
    checked. Returns each import and the pass's seconds."""
    start = time.perf_counter()
    imports = {}
    for v in VERSIONS:
        imp = run_child([rdf, "import", "--layout", "fixed", f"efo-{v}.nt", f"{v}.rdfb"], fx)
        if imp.code != 0 or not check.import_report(v, imp.out):
            raise BenchError(f"importing {v} failed its checks")
        imports[v] = imp
    return imports, time.perf_counter() - start


def cli_bisim(rdf, fx, v, check):
    """`rdf info --bisim --threads 1` on an imported store, checked."""
    info = run_child([rdf, "info", "--bisim", "--threads", "1", f"{v}.rdfb"], fx)
    if info.code != 0 or not check.bisim_line(v, info.out):
        raise BenchError(f"info --bisim of {v} failed its checks")
    return info


def settle():
    """Write dirty pages back now, untimed: freshly written fixtures
    would otherwise be flushed in the middle of a timed window."""
    os.sync()


ALIGN_ARGS = ["align", "--method", "hybrid", "--threads", "1", "v1.rdfb", "v2.rdfb"]


def oneshot(rdf, fx, seconds, check):
    """One client runs `rdf align` as sequential child processes.

    The window is split into two halves, each after its own setup pass:
    `setup_s` is the median of the passes, and the align samples span
    the whole run rather than one stretch of it. The ingest samples pair
    each import with the `info --bisim` run after the window."""
    ops, passes, window_s = [], [], 0.0
    for _ in range(2):
        passes.append(import_stores(rdf, fx, check))
        settle()
        half, t0 = [], time.perf_counter()
        while not half or time.perf_counter() - t0 < seconds / 2:
            half.append(run_child([rdf, *ALIGN_ARGS], fx))
        window_s += time.perf_counter() - t0
        ops += half
    ok = sum(1 for o in ops if o.code == 0 and check.align_report(o.out))
    infos = {v: cli_bisim(rdf, fx, v, check) for v in VERSIONS}
    return Outcome(
        setup_s=statistics.median(s for _, s in passes), align_ms=[o.ms for o in ops],
        ingest_ms=[imports[v].ms + infos[v].ms for imports, _ in passes for v in VERSIONS],
        ok=ok, attempted=len(ops), window_s=window_s,
        cpu_s=sum(o.cpu_s for o in ops), peak_rss_mib=max(o.rss_mib for o in ops),
        bytes_ratio=bytes_ratio(passes[0][0]["v2"].out),
        oneshot_ms=statistics.median(o.ms for o in ops))


ALIGN_REQ = {"op": "align", "source": "v1.rdfb", "target": "v2.rdfb",
             "method": "hybrid", "threads": 1}
# Connection A sends two aligns, then connection B one ingest unit.
SCHEDULE = ("align", "align", "ingest")


@dataclass
class Half:
    """One half of the `serve-mix` window, with the setup before it."""
    setup_s: float
    # (ms, response) per align; (ms, import response, info response) per ingest
    aligns: list
    ingests: list
    window_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0


def serve_mix(rdf, fx, seconds, check):
    """One `rdf serve --threads 2` daemon and two connections, used in
    turn so that one request is in flight at a time: A sends two warm
    aligns on the cached pair, then B one ingest unit (import v2 to a
    fresh fixed store, then `info --bisim`).

    As on `align-oneshot`, the window is split into two halves, each
    after its own setup: an import pass, a fresh daemon and its cold,
    cache-filling align. `setup_s` is the median of the two."""
    halves = [serve_half(rdf, fx, seconds / 2, check) for _ in range(2)]
    # The one-shot CLI is the reference every served report must equal.
    ref = run_child([rdf, *ALIGN_ARGS], fx)
    ref_ok = ref.code == 0 and check.align_report(ref.out)
    cli_bisim(rdf, fx, "v2", check)
    aligns = [a for h in halves for a in h.aligns]
    ingests = [i for h in halves for i in h.ingests]
    good_aligns = sum(1 for _, resp in aligns if ref_ok and resp.get("report") == ref.out)
    good_ingests = [
        imp for _, imp, info in ingests
        if imp.get("ok") and info.get("ok") and check.import_report("v2", imp["report"])
        and check.bisim_line("v2", info["report"])]
    return Outcome(
        setup_s=statistics.median(h.setup_s for h in halves),
        align_ms=[a[0] for a in aligns], ingest_ms=[i[0] for i in ingests],
        ok=good_aligns + len(good_ingests), attempted=len(aligns) + len(ingests),
        window_s=sum(h.window_s for h in halves), cpu_s=sum(h.cpu_s for h in halves),
        peak_rss_mib=max(h.peak_rss_mib for h in halves),
        bytes_ratio=statistics.median(bytes_ratio(i["report"]) for i in good_ingests)
        if good_ingests else 0.0,
        oneshot_ms=ref.ms)


def serve_half(rdf, fx, seconds, check):
    """Set up (import pass, daemon start, cold align), then send the
    schedule for `seconds`; the daemon is stopped on every path out."""
    _, import_s = import_stores(rdf, fx, check)
    settle()
    daemon_start = time.perf_counter()
    daemon = Daemon(rdf, fx)
    try:
        sock = os.path.relpath(Path(fx) / "rdf.sock")
        conn_a, conn_b = Conn(sock), Conn(sock)
        try:
            _, cold = conn_a.request(ALIGN_REQ)
            if not cold.get("ok") or not check.align_report(cold["report"]):
                raise BenchError("setup: the cold served align failed its checks")
            half = Half(import_s + time.perf_counter() - daemon_start, [], [])
            cpu0 = daemon.cpu_s()
            t0, step = time.perf_counter(), 0
            while not half.ingests or time.perf_counter() - t0 < seconds:
                if SCHEDULE[step % len(SCHEDULE)] == "align":
                    half.aligns.append(conn_a.request(ALIGN_REQ))
                else:
                    half.ingests.append(ingest(conn_b, fx, step))
                step += 1
            half.window_s = time.perf_counter() - t0
            half.cpu_s = daemon.cpu_s() - cpu0
            half.peak_rss_mib = daemon.status_mib("VmHWM")
        finally:
            conn_a.close()
            conn_b.close()
    finally:
        daemon.stop()
    return half


def ingest(conn, fx, n):
    """One ingest unit through the daemon: its latency and both responses."""
    out = f"ingest-{n}.rdfb"
    ms1, imp = conn.request(
        {"op": "import", "input": "efo-v2.nt", "output": out, "layout": "fixed"})
    ms2, info = conn.request({"op": "info", "path": out, "bisim": True, "threads": 1})
    (Path(fx) / out).unlink(missing_ok=True)
    return ms1 + ms2, imp, info


def end_to_end(o):
    ok_frac = o.ok / o.attempted
    return {
        "setup_s": o.setup_s,
        # correct ops per timed second
        "ops_per_s": o.ok / o.window_s,
        "align_p50_ms": statistics.median(o.align_ms),
        "ingest_p50_ms": statistics.median(o.ingest_ms),
        "peak_rss_mib": o.peak_rss_mib,
        "cpu_s_per_op": o.cpu_s / o.attempted,
        "store_bytes_ratio": o.bytes_ratio,
        "ok_frac": ok_frac,
    }


# ---------------------------------------------------------------- traced pass


def traced_pass(harness, fx, align_p50_ms, oneshot_ms, check):
    """Per-layer metrics from the in-process harness, and whether every
    report it rendered equals the CLI's byte for byte."""
    t = harness_json(harness, ["trace"], fx)
    layers = dict(t["metrics"])
    op_wall = layers.pop("op_wall_ms")
    layers["serve.wait_ms"] = align_p50_ms - layers["serve.handle_align_ms"]
    layers["trace_overhead_pct"] = (op_wall - oneshot_ms) / oneshot_ms * 100.0
    same = (check.align_report(t["align_report"])
            and t["served_report"] == t["align_report"]
            and check.bisim_line("v2", t["bisim_line"])
            and t["import_identical"])
    return layers, same


# ---------------------------------------------------------------- identity


def src_digest():
    """Digest of the benchmarked source, for checkouts without git."""
    h = hashlib.sha256()
    files = sorted(p for base in (ROOT / "crates", HERE / "harness")
                   for p in base.rglob("*") if p.is_file() and "target" not in p.parts)
    for p in [ROOT / "Cargo.toml", ROOT / "Cargo.lock", *files]:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def file_sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- main


def bench(args):
    rdf, harness = build()
    work = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return bench_in(args, rdf, harness, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench_in(args, rdf, harness, fx):
    gen_start = time.perf_counter()
    counts = harness_json(harness, ["gen", "--seed", str(args.seed), "--scale",
                                    str(args.scale), "--out-dir", str(fx)], fx)
    gen_s = time.perf_counter() - gen_start
    settle()
    check = Checker(counts, golden_for(args.seed, args.scale))
    # A traced run keeps a short untraced window: it supplies the client
    # latencies the layer metrics are compared with.
    seconds = max(1.0, args.seconds / 4) if args.trace else args.seconds
    if args.workload == "serve-mix":
        outcome = serve_mix(rdf, fx, seconds, check)
    else:
        outcome = oneshot(rdf, fx, seconds, check)
    metrics = end_to_end(outcome)
    correct = outcome.ok == outcome.attempted
    if args.trace:
        report, same = traced_pass(harness, fx, metrics["align_p50_ms"],
                                   outcome.oneshot_ms, check)
        correct = correct and same
        units = PER_LAYER
    else:
        report, units = metrics, END_TO_END
    identity = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "nproc": os.cpu_count(), "git_rev": git_rev(), "src_digest": src_digest(),
        "layout": "fixed", "method": "hybrid", "align_threads": 1,
        "serve_threads": 2 if args.workload == "serve-mix" else None,
        "fixtures": {f"efo-{v}.nt": file_sha(fx / f"efo-{v}.nt") for v in VERSIONS},
        "counts": counts, "gen_s": gen_s, "window_s": seconds,
        "samples": {"align": len(outcome.align_ms), "ingest": len(outcome.ingest_ms)},
        "digests": check.digests, "golden_checked": bool(check.golden),
    }
    print("identity " + json.dumps(identity, sort_keys=True))
    for k, unit in units.items():
        print(f"  {k:28} {report[k]:>16.4f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.attempted - outcome.ok,
        "metrics": {k: {"value": report[k], "unit": u} for k, u in units.items()},
    }), flush=True)
    return 0


def steady(args):
    """Repeat one workload on consecutive seeds; print each metric's
    median and interquartile spread (as a share of the median) against
    its bound in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for i in range(args.steady):
        seed = args.seed + i
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if r.returncode != 0:
            raise BenchError(f"steady run {i} failed:\n{r.stderr[-2000:]}")
        runs.append(json.loads(r.stdout.strip().splitlines()[-1]))
        vals = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
        print(f"run {i} seed {seed} correct={runs[-1]['correct']} {vals}", flush=True)
    print(f"{args.workload}: {len(runs)} runs")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        verdict = ("" if bound is None else "steady" if spread < bound / 3
                   else "within-bound" if spread <= bound else "NOISY")
        print(f"  {name:28} median {med:16.4f}  iqr/median {spread:7.4f}  "
              f"bound {bound}  {verdict}")
    return 0 if all(r["correct"] for r in runs) else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--steady", type=int, default=0, metavar="N")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        return steady(args) if args.steady else bench(args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
