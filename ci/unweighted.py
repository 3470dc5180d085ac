"""Every strongly connected 0/-inf matrix with n <= 4 agrees with the
index found from the definitions alone.

    PYTHONPATH=src:tests python ci/unweighted.py

All 2^(n*n) masks for n = 1..4: on each strongly connected one,
analyze's T, T1 = max(T, 1) and gamma, the crit-rc profile and the four
verdicts must follow from the index that oracles.successor_set_index
finds by stepping, for every node, the set of ends of the walks of
length t until the tuple of sets repeats (see
oracles.unweighted_disagreements).  Tier-1 runs n <= 3 and every 13th
n = 4 mask.  The one known disagreement is pinned, not forgiven: on the
1x1 loop verify_crit_rc_dm holds, comparing the index 0 with
DM(1, 1) = 0, while the crit-rc transient is T1 = 1.  Standard library
only.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from oracles import unweighted_disagreements

KNOWN = {(1, 1): ["verify_crit_rc_dm"]}

start, checked, found = time.time(), Counter(), {}
for n in range(1, 5):
    for mask in range(1 << n * n):
        diffs = unweighted_disagreements(n, mask)
        if diffs is not None:
            checked[n] += 1
            if diffs:
                found[(n, mask)] = diffs
    print(f"n = {n}: {checked[n]} strongly connected of {1 << n * n} ({time.time() - start:.1f} s)")
print(f"{sum(checked.values())} inputs, disagreements {found} (known: {KNOWN})")
sys.exit(0 if found == KNOWN else 1)
