"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces every binding that a `maxplus` module holds to
one of the wrapped functions (csr, spectral, extremal and cli import
names directly, so patching the defining module alone would miss their
calls); `Tracer.restore` puts the originals back and checks that it did.
Each wrapper records a span (name, start, end, parent span, request id)
in memory.  A span's self time is its duration minus the durations of its
direct child spans, which, in one thread, are disjoint and nested in it.

Which end-to-end metric each per-layer metric should move, and on which
workload:

- matrix.mat_mul.calls / .entry_ops / .self_s: requests_per_s and
  analyze.p50_ms on random_analyze, generate.p50_ms on generate; little
  of check-dm.p50_ms or check-wiel.p50_ms.
- matrix.kleene_star.* and matrix.mat_power.*: analyze.p50_ms on
  random_analyze, check-crit-rc.p50_ms on extremal_check.
- matrix.parse_matrix.self_s, matrix.render_matrix.self_s, cli.main.self_s:
  latency_p50_ms on extremal_check (many small requests) and setup_s.
- digraph.scc_decompose.* and digraph.enumerate_cycles.*: check-dm.p50_ms
  and check-wiel.p50_ms on extremal_check.
- spectral.max_cycle_mean.* and spectral.critical_graph.*: analyze.p50_ms
  on random_analyze.  A distinct_ratio is distinct input matrices per
  request over calls; a low value means repeated work.
- csr.build_csr.* and csr.csr_at.*: check-crit-rc.p50_ms and
  latency_tail_ms on extremal_check.
- csr.weak_threshold_T1.self_s, csr.transient_T.self_s,
  csr.crit_row_col_profile.self_s, csr.scan_horizon: analyze.p50_ms on
  random_analyze and extremal_check; generate.p50_ms stays flat, as
  generate runs one scan.  scan_horizon is the number of powers scanned,
  summed over the scans.
- extremal.hamiltonian_cycles.* and extremal.verify_crit_rc_wielandt.candidates
  (build_csr calls under it): the check-* medians and latency_tail_ms on
  extremal_check; absent from random_analyze.
- extremal.generate.verifications / .useful_ratio (instances returned over
  verifier calls): generate.p50_ms on generate.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

PACKAGE = "maxplus"
WRAPPED = {
    "matrix": ("mat_mul", "mat_power", "kleene_star", "parse_matrix", "render_matrix"),
    "digraph": ("scc_decompose", "enumerate_cycles"),
    "spectral": ("max_cycle_mean", "critical_graph"),
    "csr": ("analyze", "build_csr", "csr_at", "weak_threshold_T1", "transient_T", "crit_row_col_profile"),
    "extremal": (
        "hamiltonian_cycles",
        "verify_dm",
        "verify_wielandt",
        "verify_crit_rc_dm",
        "verify_crit_rc_wielandt",
        "generate_dm",
        "generate_wielandt",
    ),
    "cli": ("main",),
}
GENERATORS = ("extremal.generate_dm", "extremal.generate_wielandt")
VERIFIERS = ("extremal.verify_dm", "extremal.verify_wielandt")
SCANS_BY_CSR_AT = ("csr.weak_threshold_T1", "csr.crit_row_col_profile")
DISTINCT_INPUTS = ("spectral.max_cycle_mean", "spectral.critical_graph")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    request: int
    self_s: float
    ok: bool
    size: int  # mat_mul: n; hamiltonian_cycles: cycles found; else 0


def _matrix_key(a) -> tuple:
    return (a.n, tuple(map(tuple, a.raw())))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self.distinct: dict[tuple[str, int], set] = {}
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def install(self) -> None:
        self.assert_clean()
        wrappers = {}
        for mod, names in WRAPPED.items():
            module = sys.modules[f"{PACKAGE}.{mod}"]
            for fname in names:
                original = getattr(module, fname)
                wrappers[id(original)] = (original, self._wrap(f"{mod}.{fname}", original))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.assert_clean()

    def assert_clean(self) -> None:
        """Raise unless every maxplus binding is the program's own function."""
        for module in self._modules():
            for attr, value in vars(module).items():
                if getattr(value, "_perfbench_wrapper", False):
                    raise RuntimeError(f"tracing wrapper still bound at {module.__name__}.{attr}")

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_mul = name == "matrix.mat_mul"
        is_ham = name == "extremal.hamiltonian_cycles"
        distinct = name in DISTINCT_INPUTS

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span = Span(name, 0.0, 0.0, parent, self.request, 0.0, False, args[0].n if is_mul else 0)
            frame = [len(spans), 0.0]
            spans.append(span)
            stack.append(frame)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = clock()
                stack.pop()
                duration = span.end - span.start
                span.self_s = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if is_ham:
                span.size = len(result)
            if distinct:
                self.distinct.setdefault((name, self.request), set()).add(_matrix_key(args[0]))
            return result

        wrapper._perfbench_wrapper = True
        return wrapper

    # -- per-layer metrics --------------------------------------------------

    def _under(self, span: Span, ancestor: str) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name == ancestor:
                return True
            p = self.spans[p].parent
        return False

    def metrics(self) -> dict[str, float]:
        """Counts and self times per wrapped function, plus derived counts."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        out: dict[str, float] = {}
        for mod, names in WRAPPED.items():
            for fname in names:
                name = f"{mod}.{fname}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        spans = self.spans
        out["matrix.mat_mul.entry_ops"] = sum(s.size**3 for s in spans if s.name == "matrix.mat_mul")
        out["extremal.hamiltonian_cycles.cycles"] = sum(s.size for s in spans if s.name == "extremal.hamiltonian_cycles")
        out["extremal.verify_crit_rc_wielandt.candidates"] = sum(
            1 for s in spans if s.name == "csr.build_csr" and self._under(s, "extremal.verify_crit_rc_wielandt")
        )
        out["csr.scan_horizon"] = sum(
            1
            for s in spans
            if s.parent >= 0
            and (
                (s.name == "csr.csr_at" and spans[s.parent].name in SCANS_BY_CSR_AT)
                or (s.name == "matrix.mat_mul" and spans[s.parent].name == "csr.transient_T")
            )
        )
        verifications = sum(1 for s in spans if s.name in VERIFIERS and s.parent >= 0 and spans[s.parent].name in GENERATORS)
        returned = sum(1 for s in spans if s.name in GENERATORS and s.ok)
        out["extremal.generate.verifications"] = verifications
        out["extremal.generate.returned"] = returned
        out["extremal.generate.useful_ratio"] = returned / verifications if verifications else 0.0
        for name in DISTINCT_INPUTS:
            distinct = sum(len(v) for (n, _), v in self.distinct.items() if n == name)
            out[f"{name}.distinct_inputs"] = distinct
            out[f"{name}.distinct_ratio"] = distinct / calls[name] if calls.get(name) else 0.0
        return out

    def span_records(self):
        for s in self.spans:
            yield {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "request": s.request, "self_s": s.self_s}
