"""The spectrum read off the closure agrees with the Tarjan path at
n = 24, 32 and 40, and the spectrum the generators certify by their
skeletons' Hamiltonian cycle agrees with both at n = 24, 32, 48 and 64.

    PYTHONPATH=src:tests python ci/spectrum.py

spectral._spectrum runs Karp once from a virtual source and reads strong
connectivity and the critical components off the closure;
oracles.spectrum_by_tarjan runs Karp on each of the components of the
tests' own Tarjan search, oracles.tarjan, and that search again on the
critical arcs.  Seeded matrices of one, two or
three strongly connected blocks, some {0, 1}-weighted.  Then the
skeletons a1 of generate_dm, at g = n - 1 and a small g, and of
generate_wielandt in both cases, two seeds each: the spectrum
spectral._hamiltonian_spectrum certifies equals spectral._spectrum in
every field, and at n <= 40 the Tarjan path too; both times are printed.
Standard library only.
"""

from __future__ import annotations

import random, sys, time
from dataclasses import fields
from fractions import Fraction
from math import gcd
from maxplus import MaxPlusMatrix, extremal, from_entries, generate_dm, generate_wielandt, spectral
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

skeletons, certify = [], extremal._hamiltonian_spectrum
extremal._hamiltonian_spectrum = lambda b: skeletons.append(b) or certify(b)
for n in (24, 32, 48, 64):
    small = next(g for g in range(3, n) if gcd(g, n) == 1)
    for seed in range(2):
        skeletons.clear()
        generate_dm(n, n - 1, seed), generate_dm(n, small, seed)
        generate_wielandt(n, seed, case="n-1"), generate_wielandt(n, seed, case="n")
        for name, a1 in zip((f"dm g={n - 1}", f"dm g={small}", "wielandt n-1", "wielandt n"), skeletons):
            a = MaxPlusMatrix._from_ints(a1._d, a1._rows)
            t0 = time.time()
            sp = certify(a)
            t1 = time.time()
            fresh = spectral._spectrum(a)
            t2 = time.time()
            differ = [f.name for f in fields(fresh) if sp is None or getattr(sp, f.name) != getattr(fresh, f.name)]
            tarjan = ""
            if n <= 40 and sp is not None:
                crit = sp.crit
                mine = sp.lam.value, sp._strongly_connected, (crit.nodes, crit.arcs, crit.scc.components, crit.girth, crit.cyclicity)
                differ += ["the Tarjan path"] if mine != spectrum_by_tarjan(a) else []
                tarjan = " and the Tarjan path"
            print(f"n={n} seed={seed} {name} skeleton: certified spectrum agrees with spectral._spectrum{tarjan} "
                  f"{not differ}{f' (differs in {differ})' if differ else ''} "
                  f"({1000 * (t1 - t0):.1f} ms, spectral._spectrum {1000 * (t2 - t1):.1f} ms)")
            if differ:
                sys.exit(1)
print(f"all agree ({time.time() - start:.1f} s)")
