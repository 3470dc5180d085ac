"""Generated n = 20 instances reach their verified T1 under analyze and a
two-sided check, give their crit-rc verdicts and pass their attainment
check, and the walk oracle answers.

    PYTHONPATH=src:tests python ci/instances20.py

The critical graph each generator builds fixes both crit-rc verdicts;
checking them reads the skeleton triples' residues lazily, at gamma = 20.
The two-sided check of the expansion A^t = C S^t R (+) B^t at t = c - 1
(fails) and t = c (holds), c = verified_T1, computes B^t.  The powers of
A and B come by a stepwise mat_mul chain, not by mat_power, so the check
does not share the library's powering order.  Standard library only.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from common import check, maxplus
from maxplus import build_csr, critical_graph, csr_at, mat_mul, mat_oplus, nachtigall_matrix, parse_matrix

CRIT_RC = {
    "dm --n 20 --g 19": ["crit_rc_dm: holds", "crit_rc_wielandt: holds"],
    "dm --n 20 --g 3": ["crit_rc_dm: holds", "crit_rc_wielandt: does not hold"],
    "wielandt --n 20 --case n-1": ["crit_rc_dm: holds", "crit_rc_wielandt: holds"],
    "wielandt --n 20 --case n": ["crit_rc_dm: does not hold", "crit_rc_wielandt: holds"],
}


def last_two_powers(m, c):
    """m^(c-1) and m^c, c >= 2, one mat_mul a step."""
    power = m
    for _ in range(c - 2):
        power = mat_mul(power, m)
    return power, mat_mul(power, m)


def two_sided(matrix: Path, generated: Path, spec: str) -> None:
    start = time.time()
    a = parse_matrix(matrix.read_text())
    c = json.loads(generated.read_text())["verified_T1"]
    triple, b = build_csr(a), nachtigall_matrix(a, critical_graph(a))
    powers = zip((c - 1, c), last_two_powers(a, c), last_two_powers(b, c))
    before, at = (at == mat_oplus(csr_at(triple, t), bt) for t, at, bt in powers)
    print(spec, "expansion at c - 1:", before, "at c:", at, "c =", c, f"({time.time() - start:.1f} s)")
    if not at or before:
        sys.exit(1)


def main(tmp: Path) -> None:
    big, report, verdict_txt = tmp / "big.txt", tmp / "big.report.json", tmp / "verdict.txt"
    for spec, crit_rc in CRIT_RC.items():
        check(maxplus("generate", *spec.split(), "--out", big), f"generate {spec}")
        check(maxplus("analyze", big, "--json", out=report), f"analyze {spec}")
        t1 = json.loads(report.read_text())["T1"]
        verified = json.loads((tmp / "big.txt.json").read_text())["verified_T1"]
        print(spec, "T1", t1, "verified_T1", verified)
        if t1 != verified:
            sys.exit(1)
        two_sided(big, tmp / "big.txt.json", spec)
        check(maxplus("check-crit-rc", big, out=tmp / "crit_rc.txt"), f"check-crit-rc {spec}")
        lines = (tmp / "crit_rc.txt").read_text().splitlines()
        print(f"{spec} crit-rc:", " ".join(" ".join(lines).split()))
        if lines != crit_rc:
            print("expected", crit_rc)
            sys.exit(1)
        # the attainment verdict under the generator's identity numbering
        verb, verdict = ("check-dm", "dm_attainment") if spec.startswith("dm") else ("check-wiel", "wielandt_attainment")
        rc = maxplus(verb, big, "--numbering", ",".join(map(str, range(20))), out=verdict_txt)
        lines = verdict_txt.read_text().splitlines()
        print(f"{spec} {verb}: exit {rc},", " ".join(" ".join(lines[:1]).split()))
        check(rc, f"{verb} {spec}")
        if f"{verdict}: holds" not in lines:
            sys.exit(1)
    # the walk oracle's DP on a generated DM instance finds a walk
    dm7, walk = tmp / "dm7.txt", tmp / "walk.json"
    check(maxplus("generate", "dm", "--n", 7, "--g", 3, "--out", dm7), "generate dm --n 7 --g 3")
    check(maxplus("oracle", dm7, "--i", 0, "--j", 6, "--t", 5, "--json", out=walk), "oracle")
    w = json.loads(walk.read_text())["walk"]
    print("oracle walk:", w)
    if w is None:
        sys.exit(1)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
