"""analyze agrees with the brute-force oracles at n = 24 and 32, past the
unit-test and benchmark sizes.

    PYTHONPATH=src:tests python ci/large.py

T1, crit_rc_transient and crit_row_col_profile's row and column
transients against the full-ceiling scan of A^t = C S^t R (+) B^t, and T
against the step-by-step search, on seeded random matrices, irreducible
and reducible; analyze's sweep retires each row of A^t once it meets
C S^t R, which holds for good since Q_t (A - lambda) = Q_(t+1) for the
residues Q_t, checked here too.  Each residue Q_t, t = 1..gamma + 1, is
checked against the chain C (S - lambda)^t R (oracles.residue_by_chain),
at the whole critical graph and at each of its components, where the
rows off the component come from the product of the residue's rule.
Then matrices whose T lies past the
ceiling: past it the sweep steps on while that is cheaper than
galloping, and hands over to the galloping search when it is not; on
each, some step multiplies a row that already holds at its entries above
Q_t alone, onto its row of Q_(t+1).  Standard library only.
"""

from __future__ import annotations

import random, sys, time
from fractions import Fraction
from maxplus import analyze, crit_row_col_profile, critical_components, critical_graph, csr, from_entries, matrix, max_cycle_mean
from maxplus import negate, scalar_times, spectrum
from oracles import residue_by_chain, transient_by_steps, weak_threshold_T1_full

def block(rng, nodes, density, entries):
    """A Hamiltonian cycle through nodes plus random chords among them."""
    order = nodes[:]
    rng.shuffle(order)
    for k, u in enumerate(order):
        entries[(u, order[(k + 1) % len(order)])] = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3)))
    for u in nodes:
        for v in nodes:
            if (u, v) not in entries and rng.random() < density:
                entries[(u, v)] = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3)))

start = time.time()
for n in (24, 32):
    for seed in range(4):
        rng = random.Random(1000 * n + seed)
        entries = {}
        reducible = seed % 2 == 1
        if reducible:  # two strongly connected blocks, arcs from the first into the second only
            cut = rng.randint(n // 3, 2 * n // 3)
            block(rng, list(range(cut)), 3 / n, entries)
            block(rng, list(range(cut, n)), 3 / n, entries)
            for _ in range(3):
                entries[(rng.randrange(cut), rng.randrange(cut, n))] = Fraction(rng.randint(-30, 30))
        else:
            block(rng, list(range(n)), 3 / n, entries)
        a = from_entries(n, entries)
        triple = csr.build_csr(a)
        step = matrix._finite_entries(triple._norm)
        for t in range(1, triple.gamma + 1):
            if matrix._int_mul(csr._residue(triple, t), step) != csr._residue(triple, t + 1):
                print(f"n={n} seed={seed}: Q_t (A - lambda) differs from Q_(t+1) at t = {t}")
                sys.exit(1)
        sp = spectrum(a)
        for k, part in [(sp.crit, triple), *((k, csr.build_csr(a, k)) for k in critical_components(sp.crit))]:
            for t in range(1, part.gamma + 2):
                if csr._residue(part, t) != residue_by_chain(sp, k, t):
                    print(f"n={n} seed={seed}: Q_{t} at {len(k.nodes)} critical nodes differs from the chain C (S - lambda)^t R")
                    sys.exit(1)
        t0 = time.time()
        report = analyze(a)
        t1, rows, cols = weak_threshold_T1_full(a)
        crit_rc = max([*rows.values(), *cols.values()], default=None)
        lam = max_cycle_mean(a)
        big_t = None if reducible else transient_by_steps(scalar_times(negate(lam), a).raw(), report.gamma)
        print(f"n={n} seed={seed} {'reducible' if reducible else 'irreducible'}: gamma {report.gamma} g {report.g}, "
              f"T1 {report.t1} vs {t1}, crit-rc {report.crit_rc_transient} vs {crit_rc}, T {report.t} vs {big_t} ({time.time() - t0:.1f} s)")
        if (report.t1, report.crit_rc_transient, report.t) != (t1, crit_rc, big_t):
            sys.exit(1)
        if crit_row_col_profile(a) != (crit_rc, rows, cols):
            print(f"n={n} seed={seed}: crit_row_col_profile differs from the full-ceiling scan's rows and cols")
            sys.exit(1)
print(f"all agree ({time.time() - start:.1f} s)")

# where analyze hands over to the galloping search, if it does, and how
# many rows its steps stepped at their entries above Q_t alone, onto a row
# of Q_(t+1), the rows that hold
handovers, transient, step_holding = [], csr._transient, csr._step_holding
csr._transient = lambda norm, t, *args: handovers.append(t) or transient(norm, t, *args)
held = []

def counted(nxt, at, residue, holding, b):
    held.append(len(holding))
    return step_holding(nxt, at, residue, holding, b)

csr._step_holding = counted
start, ways = time.time(), set()

def check_t(name, a, expected):
    handovers.clear(), held.clear()
    t0 = time.time()
    report = analyze(a)
    c = min(report.wi, report.dm)
    way = "within the ceiling" if report.t <= c else f"handed over at t = {handovers[0]}" if handovers else "stepped to T"
    print(f"{name}: gamma {report.gamma}, ceiling {c}, T {report.t} vs {expected}, {way}, "
          f"{sum(held)} holding rows stepped ({time.time() - t0:.2f} s)")
    if report.t != expected:
        sys.exit(1)
    if report.t > c:
        ways.add(bool(handovers))
        if not sum(held):
            print(f"{name}: no step multiplied a holding row at its entries above Q_t")
            sys.exit(1)

# a loop just below lambda at a node off the critical graph puts T past the ceiling
for n in (24, 32):
    for seed in range(6):
        rng = random.Random(2000 * n + seed)
        entries = {}
        block(rng, list(range(n)), 3 / n, entries)
        a = from_entries(n, entries)
        v = rng.choice(sorted(set(range(n)) - critical_graph(a).nodes))
        entries[(v, v)] = max_cycle_mean(a).value - Fraction(1, rng.choice((2, 8)))
        a = from_entries(n, entries)
        big_t = transient_by_steps(scalar_times(negate(max_cycle_mean(a)), a).raw(), critical_graph(a).cyclicity)
        check_t(f"n={n} seed={seed}", a, big_t)
# the small gap of the unit tests, a loop at 0 of weight 0 and loops of -eps at 1 and 2,
# with the other nodes on a cycle through node 0 of mean -7: T = 20/eps
for n in (24, 32):
    eps = Fraction(1, 1000)
    entries = {(0, 0): 0, (0, 1): -5, (1, 0): -5, (1, 1): -eps, (1, 2): -5, (2, 1): -5, (2, 2): -eps}
    ring = [0, *range(3, n)]
    entries.update({(u, ring[(k + 1) % len(ring)]): -7 for k, u in enumerate(ring)})
    check_t(f"n={n} small gap 1/1000", from_entries(n, entries), 20 / eps)
if ways != {False, True}:
    print("past the ceiling, analyze did not both step to T and hand over")
    sys.exit(1)
print(f"T past the ceiling agrees ({time.time() - start:.1f} s)")
