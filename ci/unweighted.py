"""Every strongly connected 0/-inf matrix with n <= 4, and two slices at
n = 5 and 6, agree with the index found from the definitions alone.

    PYTHONPATH=src:tests python ci/unweighted.py

All 2^(n*n) masks for n = 1..4, and at n = 5 and 6 every digraph that
holds the cycle 0 -> 1 -> ... -> 0 plus at most 3 other arcs, and every
subset of a1_pattern(n, g) | b1_pattern(n, g) for each g from 2 to n - 1
coprime to n, which holds the attaining skeletons that random draws
almost never reach.  On each strongly connected one, analyze's T, T1 =
max(T, 1) and gamma, the crit-rc profile and the four verdicts must
follow from the index that oracles.successor_set_index finds by
stepping, for every node, the set of ends of the walks of length t
until the tuple of sets repeats (see oracles.unweighted_disagreements).
Tier-1 runs n <= 3 and every 13th n = 4 mask.  No disagreement is
expected.  Standard library only.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from itertools import combinations
from math import gcd

from maxplus.extremal import a1_pattern, b1_pattern
from oracles import unweighted_disagreements


def mask_of(n: int, arcs) -> int:
    return sum(1 << (i * n + j) for i, j in arcs)


def slice_masks(n: int) -> set[int]:
    """The n = 5 and 6 slice: the Hamiltonian cycle plus at most 3 other
    arcs, and every subset of the skeleton patterns of each coprime g."""
    cycle = {(i, (i + 1) % n) for i in range(n)}
    others = [(i, j) for i in range(n) for j in range(n) if (i, j) not in cycle]
    masks = {mask_of(n, cycle | set(extra)) for k in range(4) for extra in combinations(others, k)}
    for g in (g for g in range(2, n) if gcd(g, n) == 1):
        pattern = sorted(a1_pattern(n, g) | b1_pattern(n, g))
        masks.update(mask_of(n, (arc for k, arc in enumerate(pattern) if bits >> k & 1)) for bits in range(1 << len(pattern)))
    return masks


start, checked, found = time.time(), Counter(), {}
for n in range(1, 7):
    masks = range(1 << n * n) if n <= 4 else sorted(slice_masks(n))
    for mask in masks:
        diffs = unweighted_disagreements(n, mask)
        if diffs is not None:
            checked[n] += 1
            if diffs:
                found[(n, mask)] = diffs
    print(f"n = {n}: {checked[n]} strongly connected of {len(masks)} ({time.time() - start:.1f} s)")
print(f"{sum(checked.values())} inputs, disagreements {found}")
sys.exit(1 if found else 0)
