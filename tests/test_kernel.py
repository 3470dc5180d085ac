"""Differential tests of the exact integer kernel against tests/oracles.py.

Products, powers, Kleene stars, Karp's cycle mean, the T1 scan and the
transient scan all run on entries scaled to one common denominator.  The
weights drawn here mix coprime denominators up to the prime 10**9 + 7,
so that common denominator is large and differs from matrix to matrix;
they include negative weights and sparse -inf patterns.  Every expected
value comes from the brute-force oracles, never from the library's own
powers.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from maxplus import (
    MaxPlusMatrix,
    csr,
    csr_at,
    dm_bound,
    from_entries,
    kleene_star,
    mat_mul,
    mat_power,
    max_cycle_mean,
    matrix,
    scalar_times,
    spectral,
    spectrum,
    as_scalar,
    transient_T,
    weak_threshold_T1,
    wielandt_bound,
)
from oracles import (
    critical_arcs_brute,
    critical_girth_cyclicity_brute,
    csr_walk_oracle,
    max_cycle_mean_brute,
    walk_power,
    walk_powers,
)

DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 10**9 + 7)


def weight(rng, spread=6):
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(-spread * den, spread * den), den)


def sparse(rng, n, density):
    return MaxPlusMatrix(
        [[weight(rng) if rng.random() < density else None for _ in range(n)] for _ in range(n)]
    )


def irreducible(rng, n, density):
    """A random Hamiltonian cycle plus random chords: strongly connected."""
    order = list(range(n))
    rng.shuffle(order)
    entries = {(order[k], order[(k + 1) % n]): weight(rng) for k in range(n)}
    for i in range(n):
        for j in range(n):
            if (i, j) not in entries and rng.random() < density:
                entries[(i, j)] = weight(rng)
    return from_entries(n, entries)


def oplus_rows(x, y):
    return [
        [b if a is None else a if b is None else max(a, b) for a, b in zip(ra, rb)]
        for ra, rb in zip(x, y)
    ]


def shift_rows(rows, c):
    return [[None if x is None else x + c for x in row] for row in rows]


def instances(seed, count, sizes=range(1, 8), make=sparse):
    rng = random.Random(seed)
    for k in range(count):
        n = sizes[k % len(sizes)]
        yield make(rng, n, rng.choice((0.2, 0.45, 0.8)))


def third_mean_cycle(n):
    """Integer weights whose heaviest cycle is a 3-cycle of mean 1/3.

    The mean's denominator 3 is coprime to every entry denominator, so
    only the cycle mean brings it into the common denominator.
    """
    entries = {(0, 1): 2, (1, 2): -3, (2, 0): 2}  # weight 1 over 3 arcs
    for v in range(3, n):  # a path out of the cycle and back, mean < 1/3
        entries[(v - 1 if v > 3 else 0, v)] = -1
        entries[(v, 0)] = -v
    return from_entries(n, entries)


# ---------------------------------------------------------------------------
# products, powers, stars, cycle means


def test_mat_mul_matches_walk_dp_on_a_block_matrix():
    # the (0, 2) block of M^2 for M = [[-, A, -], [-, -, B], [-, -, -]] is A B
    rng = random.Random(1)
    for n in range(1, 8):
        for _ in range(3):
            a, b = sparse(rng, n, rng.random()), sparse(rng, n, rng.random())
            blocks = {(i, n + j): a.raw()[i][j] for i in range(n) for j in range(n)}
            blocks.update({(n + i, 2 * n + j): b.raw()[i][j] for i in range(n) for j in range(n)})
            m = from_entries(3 * n, {ij: w for ij, w in blocks.items() if w is not None})
            square = walk_power(m, 2)
            assert mat_mul(a, b).raw() == [row[2 * n :] for row in square[:n]]


def test_mat_power_matches_walk_dp():
    for a in instances(2, 28):
        powers = walk_powers(a, 12)
        for t in (1, 2, 3, 5, 8, 12):
            assert mat_power(a, t).raw() == powers[t]


def test_max_cycle_mean_matches_enumeration():
    for a in instances(3, 35):
        brute = max_cycle_mean_brute(a)
        assert max_cycle_mean(a).value == brute


def test_max_cycle_mean_with_a_coprime_mean_denominator():
    for n in range(3, 8):
        a = third_mean_cycle(n)
        assert max_cycle_mean(a).value == max_cycle_mean_brute(a) == Fraction(1, 3)


def test_critical_arcs_when_the_mean_brings_a_new_denominator():
    # lambda's denominator divides no entry denominator, so only the
    # scaling of A - lambda in spectrum brings it into the integers
    seven = {(k, (k + 1) % 7): int(k == 0) for k in range(7)}  # mean 1/7
    seven.update({(0, 3): -2, (3, 0): -1, (5, 5): 0, (6, 2): -1})
    two_thirds = {(0, 1): 2, (1, 2): -3, (2, 0): 2, (0, 3): 1, (3, 4): 1, (4, 0): -1, (2, 3): -1}
    halves_fifths = {
        (0, 1): Fraction(1, 2), (1, 2): Fraction(1, 5), (2, 0): 0,  # mean 7/30
        (0, 3): Fraction(1, 5), (3, 4): Fraction(1, 2), (4, 0): 0,  # mean 7/30
        (1, 3): Fraction(-1, 2),
    }
    cases = [third_mean_cycle(n) for n in range(3, 8)]
    cases += [from_entries(7, seven), from_entries(5, two_thirds), from_entries(5, halves_fifths)]
    for a in cases:
        assert 10 % max_cycle_mean_brute(a).denominator != 0
    rng = random.Random(9)
    drawn = 0
    while drawn < 20:  # random supports, weights over 2 or over 5
        n = rng.randint(3, 7)
        arcs = [(i, j) for i, j, w in irreducible(rng, n, 0.3).entries() if not w.is_bottom]
        a = from_entries(n, {ij: Fraction(rng.randint(-12, 12), rng.choice((2, 5))) for ij in arcs})
        if 10 % max_cycle_mean_brute(a).denominator != 0:
            cases.append(a)
            drawn += 1
    for a in cases:
        assert spectrum(a).crit.arcs == critical_arcs_brute(a)


def test_kleene_star_matches_walk_closure():
    rng = random.Random(4)
    for a in instances(4, 28):
        lam = max_cycle_mean_brute(a)
        if lam is not None:  # push every cycle mean to <= 0, some to < 0
            a = scalar_times(as_scalar(-lam - rng.choice((0, 0, Fraction(1, 7)))), a)
        closure = [[Fraction(0) if i == j else None for j in range(a.n)] for i in range(a.n)]
        for power in walk_powers(a, a.n)[1:]:
            closure = oplus_rows(closure, power)
        assert kleene_star(a).raw() == closure


def test_kleene_star_rejects_a_positive_cycle():
    a = third_mean_cycle(5)
    with pytest.raises(ValueError):
        kleene_star(a)
    assert kleene_star(scalar_times(as_scalar(Fraction(-1, 3)), a)).raw()[0][0] == 0


# ---------------------------------------------------------------------------
# the two scans


def check_weak_expansion(a):
    """T1's contract, with A^t and B^t from the walk DP and the critical
    graph, its girth and its cyclicity from cycle enumeration."""
    wx = weak_threshold_T1(a)
    lam = max_cycle_mean_brute(a)
    if lam is None:
        assert wx.t1 == 1
        return
    arcs = critical_arcs_brute(a)
    nodes = {i for arc in arcs for i in arc}
    girth, gamma = critical_girth_cyclicity_brute(a)
    assert wx.csr.gamma == gamma and wx.csr.crit.arcs == arcs
    raw = a.raw()
    b = from_entries(
        a.n,
        {
            (i, j): raw[i][j]
            for i in range(a.n)
            for j in range(a.n)
            if raw[i][j] is not None and i not in nodes and j not in nodes
        },
    )
    assert wx.b == b
    horizon = min(wielandt_bound(a.n), dm_bound(girth, a.n)) + gamma + 1
    a_powers, b_powers = walk_powers(a, horizon), walk_powers(b, horizon)

    def holds(t):
        return a_powers[t] == oplus_rows(csr_at(wx.csr, t).raw(), b_powers[t])

    assert all(holds(t) for t in range(wx.t1, horizon + 1))
    assert wx.t1 == 1 or not holds(wx.t1 - 1)
    # the critical rows and columns: A^t against the CSR term alone
    for t in range(1, horizon + 1):
        csr = csr_at(wx.csr, t).raw()
        for k in nodes:
            if t >= wx.rows[k]:
                assert a_powers[t][k] == csr[k]
            if t == wx.rows[k] - 1:
                assert a_powers[t][k] != csr[k]
            column = [row[k] for row in a_powers[t]]
            if t >= wx.cols[k]:
                assert column == [row[k] for row in csr]
            if t == wx.cols[k] - 1:
                assert column != [row[k] for row in csr]


def test_weak_expansion_contract_with_mixed_denominators():
    for a in instances(5, 70):
        check_weak_expansion(a)


def test_weak_expansion_contract_on_irreducible_matrices():
    for a in instances(6, 35, make=irreducible):
        check_weak_expansion(a)


def test_weak_expansion_contract_with_a_coprime_mean_denominator():
    for n in range(3, 8):
        check_weak_expansion(third_mean_cycle(n))


def test_csr_terms_match_walks_through_critical_nodes():
    for a in instances(7, 20, sizes=range(1, 6), make=irreducible):
        lam = max_cycle_mean_brute(a)
        wx = weak_threshold_T1(a)
        nodes = {i for arc in critical_arcs_brute(a) for i in arc}
        gamma = wx.csr.gamma
        normalized = scalar_times(as_scalar(-lam), a)
        for t in range(1, gamma + 2):
            walks = csr_walk_oracle(normalized, nodes, gamma, t, gamma * a.n + a.n)
            assert csr_at(wx.csr, t).raw() == shift_rows(walks, t * lam)


def check_transient(a):
    """T is the least t >= 0 from which A^(t+gamma) = gamma*lambda + A^t."""
    t = transient_T(a)
    lam = max_cycle_mean_brute(a)
    _, gamma = critical_girth_cyclicity_brute(a)
    identity = [[Fraction(0) if i == j else None for j in range(a.n)] for i in range(a.n)]
    powers = [identity] + walk_powers(a, t + 2 * gamma)[1:]

    def periodic(s):
        return powers[s + gamma] == shift_rows(powers[s], gamma * lam)

    assert all(periodic(s) for s in range(t, t + gamma + 1))
    assert t == 0 or not periodic(t - 1)
    return t


def test_transient_matches_walk_dp():
    transients = [check_transient(a) for a in instances(8, 28, make=irreducible)]
    assert max(transients) > 10  # some instances leave the first few powers


def test_transient_with_a_coprime_mean_denominator():
    transients = [check_transient(third_mean_cycle(n)) for n in range(3, 8)]
    assert transients[0] == 0 and min(transients[1:]) >= 1  # a bare cycle is periodic


# ---------------------------------------------------------------------------
# one integer form of A - lambda per analysis


def test_analyze_scales_once_and_runs_no_fraction_level_products(monkeypatch):
    # Karp scales A, spectrum scales A - lambda; everything after reads that
    fraction_level = ("mat_mul", "mat_power", "kleene_star", "scalar_times")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (matrix, spectral, csr):
        for name in ("spectrum", "_scaled", *fraction_level):
            if name in vars(module):
                monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    loop = from_entries(3, {(0, 0): 1, (0, 1): 0, (1, 2): -1, (2, 0): 0})
    for gamma, a in ((1, loop), (3, third_mean_cycle(6))):
        calls.clear()
        report = csr.analyze(a)
        assert report.gamma == gamma and report.t is not None
        assert calls["spectrum"] == 1 and calls["_scaled"] <= 2
        assert [calls[name] for name in fraction_level] == [0] * len(fraction_level)
