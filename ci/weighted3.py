"""Every 3x3 matrix over {-inf, -1, 0, 1} whose critical girth g is at
least 2: verify_dm and verify_wielandt hold exactly when T1 attains the
bound.

    PYTHONPATH=src:tests python ci/weighted3.py

All 4^9 matrices (oracles.weighted3_matrix), with T1 from analyze.
Where g = 2, verify_dm(a).holds must equal T1 == DM(2, 3), and where g is
2 or 3, verify_wielandt(a).holds must equal T1 == Wi(3); both bounds are
5 (see oracles.weighted3_disagreements).  Tier-1 runs every 97th matrix,
with T1 from the full-ceiling scan.  No disagreement is expected.
Prints the count at each girth and of the attaining matrices, and exits
1 if any disagrees.  Standard library only.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from maxplus import analyze, spectrum
from oracles import weighted3_disagreements, weighted3_matrix

start, checked, attaining, found = time.time(), Counter(), Counter(), {}
for k in range(4**9):
    a = weighted3_matrix(k)
    t1 = analyze(a).t1
    diffs = weighted3_disagreements(a, t1)
    if diffs is None:
        continue
    g = spectrum(a).crit.girth
    checked[g] += 1
    attaining[g] += t1 == 5
    if diffs:
        found[k] = diffs
for g in sorted(checked):
    print(f"g = {g}: {checked[g]} matrices, {attaining[g]} with T1 = 5")
print(f"{sum(checked.values())} of {4**9} with g >= 2 ({time.time() - start:.1f} s), disagreements {found}")
sys.exit(1 if found else 0)
