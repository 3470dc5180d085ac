"""The spectrum read off the closure agrees with the Tarjan path at
n = 24, 32 and 40.

    PYTHONPATH=src:tests python ci/spectrum.py

spectral._spectrum runs Karp once from a virtual source and reads strong
connectivity and the critical components off the closure;
oracles.spectrum_by_tarjan runs Karp on each of the components of the
tests' own Tarjan search, oracles.tarjan, and that search again on the
critical arcs.  Seeded matrices of one, two or
three strongly connected blocks, some {0, 1}-weighted.  Standard library
only.
"""

from __future__ import annotations

import random, sys, time
from fractions import Fraction
from maxplus import from_entries, spectral
from oracles import spectrum_by_tarjan

def block(rng, nodes, weight, entries):
    """A Hamiltonian cycle through nodes plus random chords among them."""
    order = nodes[:]
    rng.shuffle(order)
    for k, u in enumerate(order):
        entries[(u, order[(k + 1) % len(order)])] = weight()
    for u in nodes:
        for v in nodes:
            if (u, v) not in entries and rng.random() < 3 / len(nodes):
                entries[(u, v)] = weight()

start = time.time()
for n in (24, 32, 40):
    for seed in range(6):
        rng = random.Random(3000 * n + seed)
        binary = seed >= 3
        weight = (lambda: rng.randint(0, 1)) if binary else (lambda: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3))))
        cuts = [0, *sorted(rng.sample(range(2, n - 1), seed % 3)), n]
        entries = {}
        for lo, hi in zip(cuts, cuts[1:]):
            block(rng, list(range(lo, hi)), weight, entries)
        for lo, hi in zip(cuts[1:], cuts[2:]):  # arcs into later blocks only
            for _ in range(3):
                entries[(rng.randrange(lo), rng.randrange(lo, hi))] = weight()
        a = from_entries(n, entries)
        t0 = time.time()
        sp = spectral._spectrum(a)
        mine = sp.lam.value, sp._strongly_connected, (sp.crit.nodes, sp.crit.arcs, sp.crit.scc.components, sp.crit.girth, sp.crit.cyclicity)
        t1 = time.time()
        expected = spectrum_by_tarjan(a)
        print(f"n={n} seed={seed} {len(cuts) - 1} block(s){', {0, 1} weights' if binary else ''}: lambda {mine[0]}, "
              f"{len(sp.crit.scc.components)} critical component(s), strongly connected {mine[1]}, "
              f"agrees {mine == expected} ({1000 * (t1 - t0):.1f} ms, oracle {1000 * (time.time() - t1):.1f} ms)")
        if mine != expected:
            sys.exit(1)
print(f"all agree ({time.time() - start:.1f} s)")
