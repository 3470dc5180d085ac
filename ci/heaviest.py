"""The numbering searches' pruned ranking agrees with the full-support
search at n = 9 and 10, and prints its search-mode times.

    PYTHONPATH=src:tests python ci/heaviest.py

_heaviest_cycle is one DFS over the support that cuts a path once its
weight plus the closure P+(v, root) falls below the best cycle found; it
must agree with oracles.heaviest_cycle_exhaustive, which ranks every
k-cycle of the support, k = n and n - 1, up to SEARCH_LIMIT = 10.  Then
the search-mode times of verify_wielandt and verify_dm on random complete
integer matrices at n = 10 are printed; on an all-tied n = 8 input, where
every Hamiltonian cycle is critical and the search stops at the second
one; and on the same input with a heavier loop at node 0, where every
Hamiltonian cycle ties below lambda and is listed: the reason
SEARCH_LIMIT stays.  The times are not gated.  Standard library only.
"""

from __future__ import annotations

import random, sys, time
from fractions import Fraction
from math import factorial, gcd
from maxplus import MaxPlusMatrix, apply_numbering, generate_dm, generate_wielandt, verify_dm, verify_wielandt
from maxplus.extremal import SEARCH_LIMIT, _heaviest_cycle
from oracles import heaviest_cycle_exhaustive

start, checked = time.time(), 0
rng = random.Random(910)
for n in (9, SEARCH_LIMIT):
    for seed in range(2):
        generated = [generate_dm(n, g, seed) for g in range(2, n) if gcd(g, n) == 1]
        generated += [generate_wielandt(n, seed, case=case) for case in ("n-1", "n")]
        for a in generated:
            rows = [list(row) for row in a.raw()]
            missing = [(i, j) for i in range(n) for j in range(n) if rows[i][j] is None]
            for i, j in rng.sample(missing, rng.randint(1, 3)):
                rows[i][j] = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))
            perm = list(range(n))
            rng.shuffle(perm)
            for b in (a, MaxPlusMatrix(rows), apply_numbering(MaxPlusMatrix(rows), tuple(perm))):
                for k in (n, n - 1):
                    conditions = {}
                    best = _heaviest_cycle(b, k, "ranking", conditions)
                    cycle, passed, detail, _ = heaviest_cycle_exhaustive(b, k)
                    check = conditions["ranking"]
                    checked += 1
                    if (best, check.passed, check.detail) != (cycle, passed, detail):
                        print("differs at n =", n, "k =", k, (best, check), (cycle, passed, detail))
                        sys.exit(1)
print(f"{checked} searches agree ({time.time() - start:.1f} s)")

def timed(verify, a):
    t0 = time.perf_counter()
    verdict = verify(a)
    return f"{verify.__name__} {time.perf_counter() - t0:.3f} s (holds: {verdict.holds})"

complete = [
    MaxPlusMatrix([[None if i == j else Fraction(rng.randint(-9, 9)) for j in range(10)] for i in range(10)])
    for _ in range(3)
]
for a in complete:
    print("random complete n = 10:", timed(verify_wielandt, a), "|", timed(verify_dm, a))
tied = MaxPlusMatrix([[None if i == j else Fraction(0) for j in range(8)] for i in range(8)])
print("all tied n = 8:", timed(verify_wielandt, tied), "stopping at the second critical Hamiltonian cycle")
looped = MaxPlusMatrix([[Fraction(1) if i == j == 0 else None if i == j else Fraction(0) for j in range(8)] for i in range(8)])
print("tied below lambda n = 8:", timed(verify_wielandt, looped), "listing all 7! = 5040 Hamiltonian cycles;",
      f"(n - 1)! of them at n, {factorial(SEARCH_LIMIT)} at n = {SEARCH_LIMIT + 1}")
