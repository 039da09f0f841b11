"""Benchmark of modalcube: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cube-queries|large-closures|relational
                             [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout that holds `src/modalcube`.  The runner runs one full
pass of the workload, then re-runs its cheap queries while `--seconds`
allow, each pass in a fresh worker process whose set-up is timed too; around
the passes it times `modalcube decide` as a subprocess.  Every time is scaled
to reference-host speed by the probe of `calibrate.py`.  Every output is
checked against `expected.json`.  With `--trace 1` it adds one traced pass
and reports per-layer numbers instead of end-to-end ones.
Human-readable lines go to stdout; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Closed loop, one client: each query starts when the previous one returned.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import select
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 50
RUN_DEADLINE_S = 165.0   # no work starts after this; a run must end within 180 s
EXTRA_SHARE = 0.1        # see run_passes
WORKER_START_S = 0.5     # a worker's start and set-up, for planning passes
PASS_CHUNK = 500         # queries per worker process; each process times its set-up
TAIL_BEYOND = 10         # the tail percentile keeps at least this many samples above it
CLI_REPEATS = 2          # calls of each CLI command in each of the three rounds

# glibc adapts its mmap threshold to the order of earlier frees, so under the
# default environment a cube-queries worker's peak RSS moves by 10-20%
# between seeds.  There one untimed pass with the threshold fixed at its
# initial value gives peak_rss_mb.  The other workloads' peak is a few large
# arrays and repeats under the default environment (relational: spread 0.007
# over five seeds), so they take it from their timed passes, which always run
# under the default environment.
RSS_ENV = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072"}
RSS_PASS = ("cube-queries",)

# cube-queries' full pass and its RSS pass take about all of `--seconds`, so
# whether a further pass fits would depend on the host's speed, and the
# latencies on whether one did (a further pass gives cheap queries a second
# sample and moved latency_p50_ms by 20%).  Its untraced runs take one
# sample per query.  A traced run has no RSS pass or CLI rounds before its
# traced pass and repeats cheap queries as usual, so that the untraced
# wall_s the traced pass is held against is not one noisy sample per query.
ONE_PASS = ("cube-queries",)

# Fields whose mismatch means a wrong answer; the others are table contents
# (survivor sets, relations, serialized bytes), checked just as strictly but
# not answers to the question asked.
ANSWER_FIELDS = ("verdict", "found", "recheck_ok", "check_frame", "frame_ok",
                 "truth_lemma", "within_maximal")
IMPLIED = {"model": {"check_frame": True}}
INPUT_FACTS = ("closure_size", "rows_enumerated", "rounds",
               "uint8_wraps")   # describe the input, not checked

SPAN_LAYERS = (
    "formula.parse", "formula.closure", "nmatrix.build", "decision.decide",
    "decision.enumerate", "decision.filter", "accel.filter_round", "decision.relation",
    "accel.compat", "decision.serialize", "kripke.to_kripke", "kripke.frame_closure",
    "kripke.check_frame", "kripke.forces", "kripke.oracle", "cli.process", "cli.import",
    "bench.query",
)
COUNTS = ("formula.closure_size", "decision.rows_enumerated", "decision.filter_rounds",
          "decision.rows_survived", "decision.relation_edges", "decision.serialize_bytes",
          "kripke.oracle_found")   # recorded by tracing.install


class RunDeadline(Exception):
    pass


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

class Worker:
    """A worker process and the JSON lines it prints."""

    def __init__(self, args: list[str], stdin: str = "", env: dict | None = None):
        OUT.mkdir(exist_ok=True)
        with open(OUT / "worker-stderr.log", "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), *args], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        self.proc.stdin.write(stdin.encode() + b"\n")
        self.proc.stdin.close()
        self.buf = bytearray()

    def line(self, deadline: float) -> dict | None:
        """Next record, None at end of output; TimeoutError past `deadline`."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    return None
                self.buf += chunk
        raw, _, rest = bytes(self.buf).partition(b"\n")
        self.buf = bytearray(rest)
        return json.loads(raw)

    def close(self, kill: bool = False) -> int:
        if kill:
            self.proc.kill()
        self.proc.stdout.close()
        return self.proc.wait()


def setup_probe(deadline: float) -> dict:
    """Set-up in a fresh process; returns the worker's environment record."""
    w = Worker(["--setup-only"])
    try:
        rec = w.line(min(deadline, time.monotonic() + 60))
    except TimeoutError:
        w.close(kill=True)
        raise RuntimeError("set-up did not finish within 60 s") from None
    code = w.close()
    if rec is None or code != 0:
        raise RuntimeError(f"set-up failed (exit code {code}); see {OUT / 'worker-stderr.log'}")
    return rec["env"]


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def check(query: dict, got: dict) -> list[tuple[str, object, object]]:
    """(field, got, expected) for every checked field that differs."""
    want = {k: v for k, v in query["expect"].items()
            if not k.endswith("_source") and k not in INPUT_FACTS}
    want.update(IMPLIED.get(query["kind"], {}))
    if query["kind"] == "oracle" and got.get("found"):
        want["recheck_ok"] = True
    return [(k, got.get(k), v) for k, v in sorted(want.items()) if got.get(k) != v]


class Ledger:
    """Attempted and failed queries, with a cause for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong_answers = 0
        self.causes: dict[tuple[str, str], int] = {}

    def record(self, qid: str, query: dict, rec: dict | None, cause: str | None = None) -> None:
        self.attempted += 1
        if cause is None and "error" in rec:
            cause = f"raised {rec['error']}"
        if cause is None:
            diffs = check(query, rec["got"])
            if not diffs:
                return
            if any(field in ANSWER_FIELDS for field, _, _ in diffs):
                self.wrong_answers += 1
            cause = "; ".join(f"{f} {g!r}, expected {w!r}" for f, g, w in diffs)
        self.failed += 1
        self.causes[(qid, cause)] = self.causes.get((qid, cause), 0) + 1


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(workload: str, ids: list[str], queries: dict, trace: bool, ledger: Ledger,
             run_end: float, env: dict | None = None) -> dict:
    """One pass over `ids`, restarting the worker after a query is killed.

    Latencies and set-up times are scaled to reference-host time; `raw`
    keeps the measured latencies and `scale` the factors.
    """
    budget = workloads.BUDGET_S[workload]
    latency: dict[str, float] = {}
    raw: dict[str, float] = {}
    scale: dict[str, float] = {}
    setups: list[tuple[float, float]] = []   # (scaled, measured)
    completed = 0
    spans: list = []
    maxrss_kb = 0
    i = 0
    while i < len(ids):
        end = min(len(ids), i + PASS_CHUNK)
        w = Worker(["--trace"] if trace else [], stdin=json.dumps(ids[i:end]), env=env)
        try:
            ready = w.line(min(run_end, time.monotonic() + 60))
            if ready is None:
                raise RuntimeError(f"worker exited during set-up; see {OUT / 'worker-stderr.log'}")
            setups.append((ready["setup_s"] * ready["scale"], ready["setup_s"]))
            scale.setdefault("setup", ready["scale"])
            while i < end:
                qid = ids[i]
                started = time.monotonic()
                try:
                    rec = w.line(min(run_end, started + budget))
                except TimeoutError:
                    w.close(kill=True)
                    if time.monotonic() >= run_end:
                        raise RunDeadline from None
                    latency[qid] = raw[qid] = budget
                    ledger.record(qid, queries[qid], None,
                                  f"exceeded the {budget:g} s budget; worker killed")
                    i += 1
                    break
                if rec is None:
                    code = w.close()
                    latency[qid] = raw[qid] = time.monotonic() - started
                    ledger.record(qid, queries[qid], None, f"worker exited with code {code}")
                    i += 1
                    break
                if rec.get("id") != qid:
                    raise RuntimeError(f"worker answered {rec.get('id')!r} for {qid!r}")
                latency[qid] = rec["latency_s"] * rec["scale"]
                raw[qid] = rec["latency_s"]
                scale[qid] = rec["scale"]
                completed += "error" not in rec
                ledger.record(qid, queries[qid], rec)
                i += 1
            else:
                done = w.line(min(run_end, time.monotonic() + 60))
                w.close()
                if done is not None:
                    maxrss_kb = max(maxrss_kb, done["maxrss_kb"])
                    base = len(spans)   # parent indices are per worker
                    spans.extend([*sp[:3], sp[3] + base if sp[3] >= 0 else -1, *sp[4:]]
                                 for sp in done["spans"] or [])
        except RunDeadline:
            for qid in ids[i:]:
                ledger.record(qid, queries[qid], None, "not run: run deadline reached")
            raise
        except BaseException:
            if w.proc.poll() is None:
                w.close(kill=True)
            raise
    return {"latency": latency, "raw": raw, "scale": scale, "setups": setups,
            "completed": completed, "maxrss_kb": maxrss_kb, "spans": spans}


def run_passes(passes: list, workload: str, ids: list[str], queries: dict, ledger: Ledger,
               seconds: float, run_end: float, between=None, rss: bool = True,
               repeat: bool = True) -> int | None:
    """A full pass, then, if `repeat`, shorter passes while `seconds` allow.

    Each further pass re-runs, in pass order, the cheapest queries that fit in
    the time left, each at most EXTRA_SHARE of it, so cheap queries get many
    samples taken at different times and the heaviest keep one or two.
    `between` runs once after the full pass; then, if `rss`, one untimed full
    pass under RSS_ENV.  Returns the peak RSS in KiB of that pass, or else of
    the full pass.
    """
    begin = time.monotonic()
    passes.append(run_pass(workload, ids, queries, False, ledger, run_end))
    # A query's cost is its latency plus its share of the pass's own work
    # (worker start aside): probes, checks, records.
    latencies = passes[0]["raw"]
    overhead = max(0.0, time.monotonic() - begin - WORKER_START_S
                   - sum(latencies.values())) / len(ids)
    cost = {q: s + overhead for q, s in latencies.items()}
    if between is not None:
        between()
    if rss:
        rss_kb = run_pass(workload, ids, queries, False, ledger, run_end, RSS_ENV)["maxrss_kb"]
    else:
        rss_kb = passes[0]["maxrss_kb"]
    while repeat:
        left = seconds - (time.monotonic() - begin) - WORKER_START_S
        chosen, total = set(), 0.0
        for q in sorted(ids, key=cost.__getitem__):
            if cost[q] > left * EXTRA_SHARE or total + cost[q] > left:
                break
            chosen.add(q)
            total += cost[q]
        if not chosen:
            return rss_kb
        passes.append(run_pass(workload, [q for q in ids if q in chosen], queries, False,
                               ledger, run_end))
        for q, s in passes[-1]["raw"].items():
            cost[q] = min(cost[q], s + overhead)
    return rss_kb


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def cli_calls(workload: str, ids: list[str], queries: dict, trace: bool, ledger: Ledger,
              run_end: float) -> list[dict]:
    """`modalcube decide` as a subprocess, with the answer checked."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    budget = workloads.BUDGET_S[workload]
    out = []
    for qid in ids:
        q = queries[qid]
        cmd = [sys.executable] + (["-X", "importtime"] if trace else [])
        cmd += ["-m", "modalcube.cli", "decide", "--logic", q["logic"]]
        for a in q["assumptions"]:
            cmd += ["--assume", a]
        cmd.append(q["goal"])
        timeout = min(budget, run_end - time.monotonic())
        if timeout <= 0:
            ledger.record(qid, q, None, "CLI not run: run deadline reached")
            continue
        before = calibrate.probe()
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            ledger.record(qid, q, None, f"CLI exceeded the {timeout:.0f} s budget; killed")
            continue
        wall = time.perf_counter() - start
        factor = calibrate.scale([before, calibrate.probe()])
        first = proc.stdout.splitlines()[0] if proc.stdout else ""
        code_ok = proc.returncode == (0 if first == "VALID" else 1)
        got = {"verdict": first if code_ok else f"{first} (exit code {proc.returncode})"}
        ledger.record(qid, {"kind": "cli", "expect": {"verdict": q["expect"]["verdict"]}},
                      {"got": got})
        imported = import_seconds(proc.stderr) if trace else None
        out.append({"id": qid, "wall_s": wall * factor, "raw_s": wall,
                    "import_s": imported * factor if imported is not None else None})
    return out


def import_seconds(stderr: str) -> float | None:
    """Cumulative import time of the modalcube package, from -X importtime."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "modalcube":
            return int(line.split("|")[1]) / 1e6
    return None


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def query_latencies(passes: list[dict], key: str = "latency") -> dict[str, float]:
    """Each query's least latency over the passes, in seconds.

    The queries are deterministic and CPU-bound; the passes run at different
    times, and the least sample is the one a slow stretch of the host, or a
    slow moment the probe missed, reached least.  `key` "raw" gives the
    measured latencies instead of the scaled ones.
    """
    samples: dict[str, list[float]] = {}
    for p in passes:
        for qid, s in p[key].items():
            samples.setdefault(qid, []).append(s)
    return {qid: min(v) for qid, v in samples.items()}


def percentile(values: list[float], p: float) -> float:
    xs = sorted(values)
    rank = p / 100 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    n = len(values)
    p = max(0, math.floor(100 * (n - TAIL_BEYOND) / n)) if n else 0
    while True:
        v = percentile(values, p)
        beyond = sum(x > v for x in values)
        if beyond >= TAIL_BEYOND or p == 0:
            return p, v, beyond
        p -= 1


def layer_stats(spans: list, scale: dict[str, float]) -> dict:
    """Per span name: total seconds, calls and self seconds; plus counts.

    Each span is scaled to reference-host time by the factor of its query.
    """
    length = [(s[2] - s[1]) * scale.get(s[4], 1.0) for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, length):
        if s[3] >= 0:
            child[s[3]] += d
    stats: dict = {}
    counts = {c: 0 for c in COUNTS}
    for s, d, covered in zip(spans, length, child):
        total, calls, own = stats.get(s[0], (0.0, 0, 0.0))
        stats[s[0]] = (total + d, calls + 1, own + d - covered)
        for k, v in s[5].items():
            counts[k] += v
    library_self = sum(d - c for s, d, c in zip(spans, length, child)
                       if s[4] != "setup" and s[0] != "bench.query")
    return {"layers": stats, "counts": counts, "library_self_s": library_self}


def per_layer_metrics(traced: dict, untraced: list[dict], cli: list[dict]) -> tuple[dict, dict]:
    """Per-layer numbers of the traced pass, and how they account for wall_s."""
    stats = layer_stats(traced["spans"], traced["scale"])
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in SPAN_LAYERS:
        if layer.startswith("cli."):
            continue
        total, calls, own = stats["layers"].get(layer, (0.0, 0, 0.0))
        put(f"{layer}_ms", total * 1e3, "ms")
        put(f"{layer}_calls", calls, "count")
        put("decision.check_ms" if layer == "decision.decide" else f"{layer}_self_ms",
            own * 1e3, "ms")
    for c in COUNTS:
        put(c, stats["counts"][c], "count")
    enumerated = metrics["decision.rows_enumerated"]["value"]
    survived = metrics["decision.rows_survived"]["value"]
    put("decision.survivor_ratio", survived / enumerated if enumerated else 0.0, "ratio")

    process = [c["wall_s"] for c in cli]
    imports = [c["import_s"] for c in cli if c["import_s"] is not None]
    put("cli.process_ms", sum(process) * 1e3, "ms")
    put("cli.process_calls", len(process), "count")
    put("cli.process_self_ms", (sum(process) - sum(imports)) * 1e3, "ms")
    put("cli.import_ms", sum(imports) * 1e3, "ms")
    put("cli.import_calls", len(imports), "count")
    put("cli.import_self_ms", sum(imports) * 1e3, "ms")

    # The layers' self times, without the benchmark's own bench.query span,
    # should add up to the untraced wall_s, give or take the tracing overhead.
    untraced_wall = sum(query_latencies(untraced).values())
    traced_wall = sum(traced["latency"].values())
    layer_sum = stats["library_self_s"]
    overhead = traced_wall - untraced_wall
    residual = untraced_wall - layer_sum
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.traced_wall_s", traced_wall, "s")
    put("trace.overhead_s", overhead, "s")
    put("trace.layer_self_sum_s", layer_sum, "s")
    put("trace.residual_s", residual, "s")
    accounting = {"layer_self_sum_s": layer_sum, "harness_s": stats["layers"]["bench.query"][2],
                  "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
                  "overhead_s": overhead, "residual_s": residual,
                  "accounted": abs(residual) <= abs(overhead)}
    return metrics, accounting


def end_to_end_metrics(passes: list[dict], cli: list[dict], rss_kb: int,
                       rss_fixed: bool) -> tuple[dict, dict, dict]:
    """The metrics, a note on how each was taken, and the unscaled times."""
    per_query = query_latencies(passes)
    raw_query = query_latencies(passes, "raw")
    lat_ms = [x * 1e3 for x in per_query.values()]
    raw_ms = [x * 1e3 for x in raw_query.values()]
    p_tail, tail, beyond = tail_percentile(lat_ms)
    # A CLI command's time is the median of its calls: the least of a few
    # subprocess calls moved twice as much from run to run as their median.
    calls: dict[str, list[tuple[float, float]]] = {}
    for c in cli:
        calls.setdefault(c["id"], []).append((c["wall_s"], c["raw_s"]))
    cli_walls = {q: (statistics.median(w for w, _ in v), statistics.median(r for _, r in v))
                 for q, v in calls.items()}
    setups = [s for p in passes for s in p["setups"]]
    wall = sum(per_query.values())
    metrics = {
        "wall_s": (wall, "s"),
        "throughput_qps": (passes[0]["completed"] / wall, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "cli_p50_ms": (statistics.median(w for w, _ in cli_walls.values()) * 1e3, "ms"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    raw = {
        "wall_s": sum(raw_query.values()),
        "throughput_qps": passes[0]["completed"] / sum(raw_query.values()),
        "latency_p50_ms": statistics.median(raw_ms),
        "latency_tail_ms": percentile(raw_ms, p_tail),
        "cli_p50_ms": statistics.median(r for _, r in cli_walls.values()) * 1e3,
        "setup_s": statistics.median(r for _, r in setups),
    }
    notes = {
        "wall_s": f"one pass of {len(per_query)} queries, each at its least latency over "
                  f"{len(passes)} passes",
        "latency_p50_ms": f"{len(lat_ms)} queries, each at its least latency over the passes",
        "latency_tail_ms": f"p{p_tail} of {len(lat_ms)} samples, {beyond} beyond it",
        "cli_p50_ms": f"{len(cli_walls)} commands, each at the median of its "
                      f"{len(cli) // len(cli_walls)} calls",
        "setup_s": f"median of the {len(setups)} pass processes",
        "peak_rss_mb": "one untimed full pass, mmap threshold fixed at 128 KiB"
                       if rss_fixed else "the first full pass",
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes, raw


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def environment(worker_env: dict) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": worker_env["python"],
        "numpy": worker_env["numpy"],
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel": "numba" if worker_env["using_numba"] else "numpy",
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "modalcube" / "__init__.py").is_file():
        print(f"error: {SRC / 'modalcube'} not found; run from a modalcube checkout",
              file=sys.stderr)
        return 2
    run_end = time.monotonic() + RUN_DEADLINE_S
    # One CPU for the runner, its workers and the CLI subprocesses, so the
    # host-speed probe runs on the core that runs the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    expected = workloads.load_expected()
    queries = expected["queries"]
    ids, cli_ids = workloads.plan(args.workload, args.seed, expected)
    ledger = Ledger()

    env = environment(setup_probe(run_end))   # also writes bytecode caches; not counted

    # The CLI commands run in three rounds (before the passes, after the
    # first pass, at the end), so that not all of their samples fall into one
    # slow stretch of the host.
    cli: list[dict] = []

    def interlude():
        if not args.trace:
            for _ in range(CLI_REPEATS):
                cli.extend(cli_calls(args.workload, cli_ids, queries, False, ledger, run_end))

    untraced, traced = [], []
    rss_kb = None
    try:
        interlude()
        rss_kb = run_passes(untraced, args.workload, ids, queries, ledger, args.seconds,
                            run_end, between=interlude,
                            rss=not args.trace and args.workload in RSS_PASS,
                            repeat=bool(args.trace) or args.workload not in ONE_PASS)
        if args.trace:
            traced.append(run_pass(args.workload, ids, queries, True, ledger, run_end))
            cli = cli_calls(args.workload, cli_ids, queries, True, ledger, run_end)
        else:
            interlude()
    except RunDeadline:
        print(f"run deadline of {RUN_DEADLINE_S:g} s reached; remaining work counted as failed")
    if not untraced or (args.trace and not traced) or not cli or not (args.trace or rss_kb):
        raise SystemExit("error: no complete pass or CLI call within the run deadline")

    print(f"modalcube benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        metrics, accounting = per_layer_metrics(traced[0], untraced, cli)
        notes = {}
        print(f"per-layer numbers are totals over one traced pass of {len(ids)} queries; "
              f"cli.* are totals over {len(cli)} calls")
    else:
        metrics, notes, raw = end_to_end_metrics(untraced, cli, rss_kb,
                                                 args.workload in RSS_PASS)
    error_rate = ledger.failed / ledger.attempted
    if not args.trace:
        print("times are scaled to reference-host speed (calibrate.py); "
              "measured, unscaled values in brackets")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        measured = f" [{raw[name]:.4f}]" if not args.trace and name in raw else ""
        print(f"{name:34s} {m['value']:14.4f} {m['unit']:6s}{measured}{note}")
    print(f"{'error_rate':34s} {error_rate:14.4f} {'ratio':6s}  "
          f"({ledger.failed} of {ledger.attempted} attempted queries failed)")
    if args.trace:
        a = accounting
        print(f"tracing: the library layers' self times sum to {a['layer_self_sum_s']:.4f} s "
              f"in the traced pass (the benchmark's own bench.query spans add "
              f"{a['harness_s']:.4f} s); traced wall_s {a['traced_wall_s']:.4f} s, untraced "
              f"wall_s {a['untraced_wall_s']:.4f} s; overhead (traced - untraced) "
              f"{a['overhead_s']:+.4f} s")
        print(f"tracing: untraced wall_s - layer self times = {a['residual_s']:+.4f} s, "
              f"{'within' if a['accounted'] else 'NOT within'} the overhead")
    for (qid, cause), count in sorted(ledger.causes.items()):
        print(f"FAILED {qid} x{count}: {cause}")

    OUT.mkdir(exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics, "notes": notes,
              "unscaled": {} if args.trace else raw,
              "query_latency_ms": {q: v * 1e3 for q, v in query_latencies(untraced).items()},
              "error_rate": error_rate, "attempted": ledger.attempted, "failed": ledger.failed,
              "failures": [{"id": q, "cause": c, "count": n}
                           for (q, c), n in sorted(ledger.causes.items())]}
    if args.trace:
        result["accounting"] = accounting
        result["spans"] = traced[0]["spans"]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result) + "\n")
    print(f"full result: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": ledger.wrong_answers == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
