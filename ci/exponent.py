"""Attaining instances at n = 48 and 64 report T1 = T = crit_rc_transient =
verified_T1, the exponent of their critical digraph stepped on successor sets.

    PYTHONPATH=src:tests python ci/exponent.py

The critical graph of each instance covers every node, one component of
cyclicity 1, so analyze reads T1 and T as its exponent e, with no power of
A (see csr._primitive_cover).  This script finds e without the library's
powers: it steps, for every node, the set of nodes that walks of length t
along the critical arcs reach, and checks that the sets are not all full
at t = T1 - 1 and all full at t = T1.  The times are printed, not gated.
Standard library only.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

from common import check, maxplus
from maxplus import critical_graph, parse_matrix


def exponent_check(matrix: Path, report_json: Path, generated: Path, spec: str) -> None:
    a = parse_matrix(matrix.read_text())
    report = json.loads(report_json.read_text())
    verified = json.loads(generated.read_text())["verified_T1"]
    t1 = report["T1"]
    start = time.time()
    succ = [set() for _ in range(a.n)]
    for i, j in critical_graph(a).arcs:
        succ[i].add(j)
    reach, full = [{i} for i in range(a.n)], []  # reach[i]: the ends of the walks of length t from i
    for t in range(1, t1 + 1):
        reach = [set().union(*(succ[k] for k in ends)) for ends in reach]
        full.append(all(len(ends) == a.n for ends in reach))
    exponent = full[-1] and not full[-2]
    print(f"{spec}: T1 {t1}, T {report['T']}, crit_rc_transient {report['crit_rc_transient']}, "
          f"verified_T1 {verified}, critical exponent T1: {exponent} ({time.time() - start:.1f} s)")
    if not (exponent and t1 == report["T"] == report["crit_rc_transient"] == verified):
        sys.exit(1)


def timed(*args, out: str) -> str:
    start = time.time()
    check(maxplus(*args, out=out), " ".join(map(str, args)))
    return f"{time.time() - start:.3f} s"


def main(tmp: Path) -> None:
    attain, report = tmp / "attain.txt", tmp / "attain.report.json"
    for n in (48, 64):
        for spec in (f"wielandt --n {n} --case n-1", f"dm --n {n} --g 5", f"dm --n {n} --g {n - 1}"):
            made = timed("generate", *spec.split(), "--out", attain, out=os.devnull)
            read = timed("analyze", attain, "--json", out=report)
            print(f"{spec}: generate {made}, analyze {read}")
            exponent_check(attain, report, tmp / "attain.txt.json", spec)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
