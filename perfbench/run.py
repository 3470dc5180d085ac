"""Benchmark of the `maxplus` CLI verbs, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
One client in one single-threaded process runs a closed loop: each request
is one CLI verb, called in-process as `maxplus.cli.main(argv)` with stdout
and stderr captured, and starts only after the previous one returns, so
argument parsing, file parsing, rendering and the exit code are timed and
interpreter start-up is not.  The loop repeats whole passes over the
workload's seeded corpus until S seconds and MIN_PASSES passes are done,
so that every request is timed more than once and its mix does not
depend on the program's speed.

Times are reported in nominal seconds (see speed.py): each is divided by
the speed probe's duration around it, and a request's time is the median
over the passes.  With `--trace 0` the run prints the end-to-end metrics.
With `--trace 1` it runs every request of one pass untraced and then
traced, checks that both print the same bytes and exit codes, and prints
the per-layer counts and self times of the traced runs; a pass does not
depend on S, so its counts repeat exactly for one seed.  Trace times are
wall-clock seconds.

Every output is checked (see workloads.py); on the default seed each one
must also match its digest in answers.json, which
`python3 perfbench/run.py --record-answers` rewrites.  The last stdout
line is one JSON object; a run record and the trace spans are written
under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
ANSWERS = Path(__file__).resolve().parent / "answers.json"
HASH_SEED = "0"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# Every request runs at least this often in a run; its median counts.  A
# third pass made extremal_check no steadier: what remains there is the
# probe slowing more than its requests do (see speed.py).
MIN_PASSES = 2
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
VERBS = {
    "random_analyze": ("analyze",),
    "extremal_check": ("analyze", "check-dm", "check-wiel", "check-crit-rc"),
    "generate": ("generate",),
}


class Program:
    """The freshly imported maxplus modules the benchmark drives."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "maxplus" or m.startswith("maxplus.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("maxplus.cli")
        self.extremal = importlib.import_module("maxplus.extremal")
        origin = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"maxplus was imported from {origin}, not from {SRC}")


def set_up(workload: str, seed: int, work: Path):
    """Import the program and build the corpus; return (seconds, program, corpus)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    start = time.perf_counter()
    program = Program()
    corpus = workloads.build(workload, seed, work, program)
    return time.perf_counter() - start, program, corpus


def digest(rc, out: str, err: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}\n{err}".encode()).hexdigest()[:16]


def execute(cli, req: workloads.Request):
    """One timed request: (latency_s, exit code or None, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(req.argv))
    except (Exception, SystemExit) as exc:  # a raising request fails; the run goes on
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue(), error


class Outcomes:
    """Requests run so far, with the checks applied in request order."""

    def __init__(self, answers: dict | None):
        self.answers = answers
        self.requests: list[workloads.Request] = []
        self.latency: list[float] = []
        self.probe_index: list[int] = []  # probe sample taken before each request
        self.digests: list[str] = []
        self.failures: list[dict] = []
        self.known: dict = {}  # analyze results per extremal instance
        self.first: dict[str, str] = {}  # request key -> digest of its first output

    def add(self, req: workloads.Request, latency: float, rc, out: str, err: str, error) -> None:
        self.requests.append(req)
        self.latency.append(latency)
        d = digest(rc, out, err)
        self.digests.append(d)
        if error is not None:
            reason = error
        elif req.key not in self.first:
            self.first[req.key] = d
            reason = workloads.check(req, rc, out, self.known)
        elif self.first[req.key] != d:
            reason = "output differs from the first run of the same request"
        else:
            reason = None
        if reason is None and self.answers is not None and self.answers.get(req.key) != d:
            reason = f"output digest {d} differs from the recorded answer {self.answers.get(req.key)}"
        if reason is not None:
            self.failures.append({"request": req.key, "argv": list(req.argv[1:]), "exit": rc, "reason": reason})

    @property
    def attempted(self) -> int:
        return len(self.latency)


def run_pass(program: Program, requests, outcomes: Outcomes, probe: speed.Probe) -> None:
    """Run each request once, in order, probing the speed between requests."""
    for req in requests:
        if probe.due():
            probe.measure()
        outcomes.probe_index.append(len(probe.samples) - 1)
        outcomes.add(req, *execute(program.cli, req))
    probe.measure()  # closes the bracket of the last request


def run_loop(program: Program, corpus, seconds: float, outcomes: Outcomes, probe: speed.Probe) -> float:
    """Closed loop of whole passes until `seconds` and MIN_PASSES are reached."""
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        run_pass(program, corpus.requests, outcomes, probe)
        passes += 1
    return time.perf_counter() - start


@dataclass
class TracedPass:
    plain: Outcomes
    traced: Outcomes
    tracer: tracing.Tracer


def trace_pass(program: Program, requests, answers: dict | None) -> TracedPass:
    """Run each request untraced and then traced, back to back.

    Running the two side by side keeps a change of machine speed out of
    the overhead ratio.  Any output that differs between them fails.
    """
    tracer = tracing.Tracer()
    plain, traced = Outcomes(answers), Outcomes(answers)
    for i, req in enumerate(requests):
        tracer.assert_clean()
        plain.add(req, *execute(program.cli, req))
        tracer.request = i
        tracer.install()
        try:
            traced.add(req, *execute(program.cli, req))
        finally:
            tracer.restore()
        if plain.digests[-1] != traced.digests[-1]:
            traced.failures.append({"request": req.key, "reason": "traced output differs from the untraced output"})
    return TracedPass(plain, traced, tracer)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / n, ordered[k]


def request_latencies(o: Outcomes, probe: speed.Probe) -> dict[str, tuple[workloads.Request, float]]:
    """Each request's median latency over the passes, in nominal seconds.

    Timings bracketed by a change of machine speed count only for a
    request that has no other.
    """
    runs: dict[str, tuple[list[float], list[float]]] = {}  # key -> (steady, unsteady)
    reqs: dict[str, workloads.Request] = {}
    for req, latency, p in zip(o.requests, o.latency, o.probe_index):
        runs.setdefault(req.key, ([], []))[0 if probe.steady(p) else 1].append(latency * probe.factor(p))
        reqs[req.key] = req
    return {key: (reqs[key], statistics.median(steady or unsteady)) for key, (steady, unsteady) in runs.items()}


def end_to_end(workload: str, setup_s: list[float], wall: float, o: Outcomes, probe: speed.Probe) -> dict:
    """End-to-end metrics; BENCHMARK.json names those that runs are compared on."""
    per_request = request_latencies(o, probe)
    lat = [latency for _, latency in per_request.values()]
    pct, tail_s = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "requests_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail_s,
        "latency_tail_percentile": pct,
        "latency_samples": len(lat),
        "failed_ratio": len(o.failures) / o.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "observed_requests_per_s": (o.attempted - len(o.failures)) / wall,
        "observed_latency_p50_ms": 1000 * statistics.median(o.latency),
        "probe_slowdown_median": statistics.median(s for _, s in probe.samples) / speed.NOMINAL_S,
        "wall_s": wall,
    }
    for verb in VERBS[workload]:
        verb_lat = [latency for req, latency in per_request.values() if req.verb == verb]
        metrics[f"{verb}.p50_ms"] = 1000 * statistics.median(verb_lat)
        metrics[f"{verb}.samples"] = len(verb_lat)
    return metrics


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Python version, commit, nproc, seed, hash seed and source size."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    sources = sorted((SRC / "maxplus").glob("*.py"))
    lines = {p.stem: sum(1 for ln in p.read_text().splitlines() if ln.strip()) for p in sources}
    blob = b"".join(p.read_bytes() for p in sources)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": hashlib.sha256(blob).hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "source_nonblank_lines": {**lines, "total": sum(lines.values())},
    }


def load_answers(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(ANSWERS.read_text())["answers"][workload]


def measure(workload: str, seed: int, seconds: float, work: Path, record: dict) -> dict:
    probe = speed.Probe()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        before = probe.measure()
        s, program, corpus = set_up(workload, seed, work)
        probe.measure()
        setup_s.append(s * probe.factor(before))
    tracing.Tracer().assert_clean()
    outcomes = Outcomes(load_answers(workload, seed))
    wall = run_loop(program, corpus, seconds, outcomes, probe)
    metrics = end_to_end(workload, setup_s, wall, outcomes, probe)
    record["setup_runs_s"] = setup_s
    return finish(record, outcomes.attempted, outcomes.failures, metrics, "end_to_end")


def measure_traced(workload: str, seed: int, work: Path, record: dict) -> dict:
    _, program, corpus = set_up(workload, seed, work)
    result = trace_pass(program, corpus.requests, load_answers(workload, seed))
    metrics = result.tracer.metrics()
    metrics["trace.untraced_s"] = sum(result.plain.latency)
    metrics["trace.traced_s"] = sum(result.traced.latency)
    metrics["trace.overhead_ratio"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        for rec in result.tracer.span_records():
            fh.write(json.dumps(rec) + "\n")
    record["trace_requests"] = len(corpus.requests)
    attempted = result.plain.attempted + result.traced.attempted
    return finish(record, attempted, result.plain.failures + result.traced.failures, metrics, "per_layer")


def finish(record: dict, attempted: int, failures: list[dict], metrics: dict, kind: str) -> dict:
    """Write the run record, print every metric, return the result line.

    The result line carries the BENCHMARK.json metrics of the given kind.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    record.update(metrics=metrics, failures=failures)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"record-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for key in ("workload", "seed", "python", "commit", "nproc", "pythonhashseed", "source_nonblank_lines"):
        print(f"{key:>44}  {record[key]}")
    for key, value in metrics.items():
        print(f"{key:>44}  {value:.6g}")
    for f in failures[:20]:
        print(f"FAILED {f['request']}: {f['reason']}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }


def record_answers() -> None:
    """Run every request of every corpus once on the default seed and store digests."""
    answers = {}
    for workload in workloads.WORKLOADS:
        work = OUT_DIR / f"work-{os.getpid()}"
        try:
            _, program, corpus = set_up(workload, DEFAULT_SEED, work)
            o = Outcomes(None)
            for req in corpus.requests:
                o.add(req, *execute(program.cli, req))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if o.failures:
            raise SystemExit(f"{workload}: refusing to record failing outputs: {o.failures[:3]}")
        answers[workload] = dict(zip((r.key for r in o.requests), o.digests))
        print(f"{workload}: {len(answers[workload])} answers", file=sys.stderr)
    payload = {"seed": DEFAULT_SEED, "pythonhashseed": HASH_SEED, "answers": answers}
    ANSWERS.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-answers", action="store_true", help="rewrite answers.json from the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "maxplus").is_dir():
        print(f"error: no program source at {SRC / 'maxplus'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_answers:
        record_answers()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, work, record)
        else:
            result = measure(args.workload, args.seed, args.seconds, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides set order; fix it so that counts and outputs repeat.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
