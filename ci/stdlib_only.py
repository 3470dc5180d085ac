"""The package and its CLI run on the standard library alone.

    PYTHONPATH=src:tests python ci/stdlib_only.py

- `import maxplus, maxplus.cli` in a fresh interpreter, and a generated
  DM instance analyzed by the CLI.
- Each generator draws one candidate and raises if it fails its
  post-verification: every coprime (g, n) and both Wielandt cases up to
  n = 20, past the unit-test sizes.  The candidate inherits its
  skeleton's spectrum and CSR triple; they must equal spectrum and
  build_csr run on a copy with empty memos, every residue k <= gamma too,
  and at cyclicity 1 the triple's M must be the spectrum's closure itself.
- A usage error exits 1 (argparse's error paths differ between versions).
- The numbering searches at the size limit (SEARCH_LIMIT = 10), with no
  --numbering.
- T far past the ceiling DM(1, 3) = 4: the gap below lambda is 1/1000,
  so T = 20000.
- The critical graph's index of wielandt_skeleton(40) is Wi(40) = 1522,
  found in about 30 products.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from math import gcd
from pathlib import Path

from common import check, maxplus
from maxplus import generate_dm, generate_wielandt, render_matrix, wielandt_skeleton
from oracles import memo_differences


def generated() -> None:
    start = time.time()
    dm = [generate_dm(n, g, s) for n in range(3, 21) for g in range(2, n) if gcd(g, n) == 1 for s in range(3)]
    wi = [generate_wielandt(n, s, case=c) for n in range(2, 21) for c in ("n-1", "n") for s in range(3)]
    print("generated", len(dm), "DM and", len(wi), f"Wielandt instances, n <= 20, one candidate each ({time.time() - start:.1f} s)")
    for a in dm + wi:
        if a._spectrum is None or a._csr is None:
            print(f"n = {a.n}: the candidate inherited nothing")
            sys.exit(1)
        if diffs := memo_differences(a):
            print(f"n = {a.n}: inherited {diffs} differ from a fresh computation")
            sys.exit(1)
        if (a._csr._m is a._spectrum._closure) != (a._csr.gamma == 1):
            print(f"n = {a.n}: at cyclicity {a._csr.gamma} M is {'' if a._csr.gamma > 1 else 'not '}the spectrum's closure")
            sys.exit(1)
    shared = sum(a._csr.gamma == 1 for a in dm + wi)
    print(f"every inherited spectrum and triple equals a fresh computation, {shared} at cyclicity 1 with M the "
          f"spectrum's closure ({time.time() - start:.1f} s)")


def main(tmp: Path) -> None:
    start = time.time()
    check(subprocess.run([sys.executable, "-c", "import maxplus, maxplus.cli"]).returncode, "import maxplus, maxplus.cli")
    example = tmp / "ex.txt"
    check(maxplus("generate", "dm", "--n", 5, "--g", 3, "--seed", 0, "--out", example), "generate dm")
    check(maxplus("analyze", example, "--json"), "analyze --json")
    generated()
    rc = maxplus("check-dm", stderr=False)
    if rc != 1:
        print(f"a usage error exited {rc}, not 1")
        sys.exit(1)
    for spec in ("dm --n 10 --g 3", "wielandt --n 10 --case n-1", "wielandt --n 10 --case n"):
        verb, verdict = ("check-dm", "dm_attainment") if spec.startswith("dm") else ("check-wiel", "wielandt_attainment")
        limit = tmp / "limit.txt"
        check(maxplus("generate", *spec.split(), "--out", limit), f"generate {spec}")
        rc = maxplus(verb, limit, out=tmp / "limit.verdict.txt")
        lines = (tmp / "limit.verdict.txt").read_text().splitlines()
        print(f"{spec} {verb} search: exit {rc},", " ".join(" ".join(lines[:2]).split()))
        check(rc, f"{verb} on {spec}")
        if f"{verdict}: holds" not in lines or "  numbering: 0 1 2 3 4 5 6 7 8 9" not in lines:
            sys.exit(1)
    gap = tmp / "gap.txt"
    gap.write_text("3\n0 -5 -inf\n-5 -1/1000 -5\n-inf -5 -1/1000\n")
    check(maxplus("analyze", gap, "--json", out=tmp / "gap.json"), "analyze the small gap")
    t = json.loads((tmp / "gap.json").read_text())["T"]
    print("small gap: T", t)
    if t != 20000:
        sys.exit(1)
    wi40 = tmp / "wi40.txt"
    wi40.write_text(render_matrix(wielandt_skeleton(40)))
    check(maxplus("check-crit-rc", wi40, out=tmp / "wi40.verdict.txt"), "check-crit-rc on wielandt_skeleton(40)")
    lines = (tmp / "wi40.verdict.txt").read_text().splitlines()
    print("wielandt_skeleton(40) crit-rc:", " ".join(" ".join(lines).split()))
    if "crit_rc_dm: holds" not in lines:
        sys.exit(1)
    print(f"step took {time.time() - start:.0f} s")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
