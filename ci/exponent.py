"""Attaining instances at n = 48 and 64 report T1 = T = crit_rc_transient =
verified_T1, read by analyze's one search over the powers.

    PYTHONPATH=src:tests python ci/exponent.py

The critical graph of each instance covers every node, so analyze runs no
sweep but one search for the least t at which A^t meets C S^t R (see
csr.analyze).  verified_T1 is the generator's point check, a separate
path: the sweep from one power below the ceiling (see csr._t1_at_ceiling).
On the DM and case-(n-1) Wielandt instances the critical graph is one
component of cyclicity 1, so analyze reads T1 and T as its exponent e,
with no power of A (see csr._primitive_cover).  This script finds e
without the library's powers: it steps, for every node, the set of nodes
that walks of length t along the critical arcs reach, and checks that the
sets are not all full at t = T1 - 1 and all full at t = T1.  A case-n
Wielandt instance has the Hamiltonian cycle as critical graph, of
cyclicity n, which has no exponent; analyze searches its int rows there,
against residues that cost no product: Q_n = C S^n R - n*lambda is M
itself, and each other Q_k is Q_(k-1) with its rows shifted along the
cycle's arcs (see csr._residue).  This script checks every residue
Q_1, ..., Q_n of those instances against the chain of products C (S -
lambda)^k R that the library no longer runs there
(oracles.residue_by_chain).  The times are printed, not gated.  Standard
library only.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

from common import check, maxplus
from maxplus import build_csr, critical_graph, csr, parse_matrix, spectrum
from oracles import residue_by_chain


def critical_exponent(matrix: Path, t1: int) -> bool:
    """Whether T1 is the exponent of the critical digraph, stepped on successor sets."""
    a = parse_matrix(matrix.read_text())
    succ = [set() for _ in range(a.n)]
    for i, j in critical_graph(a).arcs:
        succ[i].add(j)
    reach, full = [{i} for i in range(a.n)], []  # reach[i]: the ends of the walks of length t from i
    for t in range(1, t1 + 1):
        reach = [set().union(*(succ[k] for k in ends)) for ends in reach]
        full.append(all(len(ends) == a.n for ends in reach))
    return full[-1] and not full[-2]


def residues_by_chain(matrix: Path) -> bool:
    """Whether each residue Q_1, ..., Q_gamma of the matrix's CSR triple
    equals C (S - lambda)^k R by the chain of products."""
    a = parse_matrix(matrix.read_text())
    sp, triple = spectrum(a), build_csr(a)
    return all(csr._residue(triple, k) == residue_by_chain(sp, sp.crit, k) for k in range(1, triple.gamma + 1))


def report_check(matrix: Path, report_json: Path, generated: Path, spec: str) -> None:
    report = json.loads(report_json.read_text())
    verified = json.loads(generated.read_text())["verified_T1"]
    t1 = report["T1"]
    start = time.time()
    cover = spec.endswith("--case n")
    exponent = None if cover else critical_exponent(matrix, t1)  # None: not stepped
    residues = residues_by_chain(matrix) if cover else None  # None: not checked
    print(f"{spec}: T1 {t1}, T {report['T']}, crit_rc_transient {report['crit_rc_transient']}, "
          f"verified_T1 {verified}, critical exponent T1: {exponent}, residues by chain: {residues} "
          f"({time.time() - start:.1f} s)")
    if exponent is False or residues is False or not t1 == report["T"] == report["crit_rc_transient"] == verified:
        sys.exit(1)


def timed(*args, out: str) -> str:
    start = time.time()
    check(maxplus(*args, out=out), " ".join(map(str, args)))
    return f"{time.time() - start:.3f} s"


def main(tmp: Path) -> None:
    attain, report = tmp / "attain.txt", tmp / "attain.report.json"
    for n in (48, 64):
        specs = (f"wielandt --n {n} --case n-1", f"wielandt --n {n} --case n", f"dm --n {n} --g 5", f"dm --n {n} --g {n - 1}")
        for spec in specs:
            made = timed("generate", *spec.split(), "--out", attain, out=os.devnull)
            read = timed("analyze", attain, "--json", out=report)
            print(f"{spec}: generate {made}, analyze {read}")
            report_check(attain, report, tmp / "attain.txt.json", spec)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
