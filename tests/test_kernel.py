"""Differential tests of the exact integer kernel against tests/oracles.py.

Products, powers, Kleene stars, Karp's cycle mean and the sweep behind
T1 and the transient T all run on entries scaled to one common
denominator.  The weights drawn here mix coprime denominators up to the
prime 10**9 + 7, so that common denominator is large and differs from
matrix to matrix; they include negative weights and sparse -inf
patterns.  Every expected value comes from the brute-force oracles,
never from the library's own powers.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from maxplus import (
    MaxPlusMatrix,
    analyze,
    csr,
    csr_at,
    digraph,
    dm_bound,
    dm_skeleton,
    extremal,
    from_entries,
    generate_dm,
    generate_wielandt,
    kleene_star,
    mat_mul,
    mat_power,
    max_cycle_mean,
    matrix,
    scalar_times,
    scc_decompose,
    semiring,
    spectral,
    spectrum,
    as_scalar,
    build_csr,
    transient_T,
    weak_threshold_T1,
    wielandt_bound,
    wielandt_skeleton,
)
from conftest import normalized, random_reducible
from oracles import (
    closure_live,
    critical_arcs_brute,
    critical_girth_cyclicity_brute,
    csr_walk_oracle,
    excess_entries,
    max_cycle_mean_brute,
    row_transients_by_steps,
    walk_power,
    walk_powers,
    weak_threshold_T1_full,
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


def below(x, y):
    """Whether raw rows x <= y entrywise, None being -inf."""
    return all(
        a is None or (b is not None and a <= b) for ra, rb in zip(x, y) for a, b in zip(ra, rb)
    )


def nachtigall_brute(a, nodes):
    """a with every arc at a node of nodes dropped."""
    raw = a.raw()
    return from_entries(
        a.n,
        {
            (i, j): raw[i][j]
            for i in range(a.n)
            for j in range(a.n)
            if raw[i][j] is not None and i not in nodes and j not in nodes
        },
    )


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


def int_rows(rng, n, bound):
    """Random int-or-None rows with entries in [-bound, bound]: some of
    them reducible (no arc from the last block of nodes back to the first),
    some with a row that is all None."""
    density = rng.random()
    rows = [[rng.randint(-bound, bound) if rng.random() < density else None for _ in range(n)] for _ in range(n)]
    shape = rng.randrange(3)
    if shape == 1:
        cut = rng.randint(1, n)
        rows = [[None if i >= cut > j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
    elif shape == 2:
        rows[rng.randrange(n)] = [None] * n
    return rows


def test_int_power_squares_from_the_leading_bit_and_multiplies_by_the_base(monkeypatch):
    # P^t equals the t-fold product P P ... P, made of bit_length(t) - 1
    # squarings and popcount(t) - 1 products whose right factor is P itself,
    # in the order of the bits of t after the leading one
    rng = random.Random(19)
    int_mul, finite = matrix._int_mul, matrix._finite_entries
    products = []
    monkeypatch.setattr(matrix, "_int_mul", lambda arows, b: products.append((arows, b)) or int_mul(arows, b))
    for trial in range(24):
        n = rng.randint(1, 6)
        rows = int_rows(rng, n, 10**60 if trial % 2 else 9)
        step, chain = finite(rows), rows
        for t in range(1, 71):
            if t > 1:
                chain = int_mul(chain, step)
            products.clear()
            assert matrix._int_power(rows, t) == chain, (rows, t)
            kinds = []
            for bit in bin(t)[3:]:
                kinds += ["square", "base"] if bit == "1" else ["square"]
            assert len(products) == len(kinds) == t.bit_length() - 1 + bin(t).count("1") - 1
            for kind, (arows, b) in zip(kinds, products):
                assert b == (finite(arows) if kind == "square" else step), (rows, t, kind)
    monkeypatch.undo()
    for a in instances(2, 6):
        chain = a
        for t in range(1, 71):
            if t > 1:
                chain = mat_mul(chain, a)
            assert mat_power(a, t) == chain


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


def test_int_closure_reads_the_pivot_row_once_and_matches_the_live_read():
    # on rows of A - lambda (A itself when acyclic), which have no
    # positive cycle: random, reducible, with an all-None row, and with
    # 60-digit entries
    rng = random.Random(60)
    kinds = Counter()

    def huge(rng, n, density):
        return MaxPlusMatrix(
            [[Fraction(rng.randint(-(10**60), 10**60), rng.choice((1, 3))) if rng.random() < density else None
              for _ in range(n)] for _ in range(n)]
        )

    makers = [sparse, irreducible, random_reducible, huge]
    for k in range(240):
        a = makers[k % len(makers)](rng, 1 + k % 10, rng.choice((0.2, 0.45, 0.8)))
        d, rows = a._d, [row[:] for row in a._rows]  # a copy: a matrix's rows are read only
        if k % 3 == 0:  # an all-None row
            rows[rng.randrange(a.n)] = [None] * a.n
        lam = spectral._karp(rows)
        if lam is not None:
            rows = spectral._normalized(d, rows, lam / d)[1]
        expected = [row[:] for row in rows]
        closure_live(expected)
        matrix._int_closure(rows)
        assert rows == expected
        kinds["cyclic" if lam is not None else "acyclic"] += 1
        kinds["60 digits"] += any(x is not None and abs(x) >= 10**59 for row in rows for x in row)
        kinds["not strongly connected"] += any(x is None for row in rows for x in row)
    assert min(kinds.values()) >= 30, kinds
    # kleene_star still finds a positive loop, 2-cycle and long cycle
    positive = [
        MaxPlusMatrix([[Fraction(1, 10**9 + 7)]]),
        from_entries(3, {(0, 0): -1, (1, 1): Fraction(1, 5), (1, 2): 0, (2, 0): -3}),
        from_entries(3, {(0, 0): -5, (1, 1): -5, (1, 2): Fraction(7, 2), (2, 1): -3, (2, 0): -1}),
    ]
    n = 12  # a Hamiltonian cycle of weight 1/7 through the nodes in reverse, and lighter chords
    entries = {(v, v - 1): -1 for v in range(1, n)}
    entries[(0, n - 1)] = n - 1 + Fraction(1, 7)
    entries.update({(u, v): -50 for u in range(n) for v in range(u + 1, n - 1)})
    positive.append(from_entries(n, entries))
    for a in positive:
        with pytest.raises(ValueError, match="positive-weight cycle"):
            kleene_star(a)


# ---------------------------------------------------------------------------
# the sweep: T1 and the transient T


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
    b = nachtigall_brute(a, nodes)
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


def test_walks_not_through_critical_nodes_are_walks_of_B():
    # A^t <= C S^t R (+) B^t and B^t <= A^t at every t, so the expansion
    # holds exactly when C S^t R <= A^t: the one-sided test of the sweep
    cases = [*instances(21, 150), *instances(22, 80, make=irreducible)]
    cases += [third_mean_cycle(n) for n in range(3, 8)]
    excess = 0
    for a in cases:
        triple = build_csr(a)  # its critical graph is checked in check_weak_expansion
        if triple.crit is None:
            continue
        nodes = triple.crit.nodes
        horizon = min(wielandt_bound(a.n), dm_bound(triple.crit.girth, a.n)) + triple.gamma
        a_powers = walk_powers(a, horizon)
        b_powers = walk_powers(nachtigall_brute(a, nodes), horizon)
        for t in range(1, horizon + 1):
            at, bt, csr = a_powers[t], b_powers[t], csr_at(triple, t).raw()
            assert below(at, oplus_rows(csr, bt)) and below(bt, at)
            for k in nodes:
                assert below([at[k]], [csr[k]])
                assert below([[row[k] for row in at]], [[row[k] for row in csr]])
            excess += not below(csr, at)
    assert excess >= 100


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


def test_sweep_matches_the_full_ceiling_scan(monkeypatch):
    # analyze's sweep on strongly connected input stops at max(T, 1), where
    # the last row meets the residue, when that comes before the ceiling;
    # the T1-only sweep, of weak_threshold_T1 and of analyze on other
    # input, stops at t1, after t1 - 1 steps.  Both test a row only until
    # it holds; the oracle compares every row at every t up to the ceiling.
    # When the critical graph covers every node, analyze runs no sweep but
    # one search from t = 0 (see csr.analyze), whose products are at most
    # 2*bit_length(T1 - 1) - 1 once the residues are read, and none when
    # T1 = 1
    found, steps, handovers = [], [], []
    sweep, int_mul, transient = csr._sweep, matrix._int_mul, csr._transient

    def recorded(*args):
        handovers.clear()
        out = sweep(*args)
        found.append(None if handovers else out[0])  # T, if the sweep found it without handing over
        return out

    monkeypatch.setattr(csr, "_sweep", recorded)
    monkeypatch.setattr(csr, "_transient", lambda *args: handovers.append(args[1]) or transient(*args))
    monkeypatch.setattr(csr, "_int_mul", lambda *args: steps.append(1) or int_mul(*args))
    kinds = Counter()
    for a in [*instances(10, 300), *instances(11, 100, make=irreducible)]:
        t1, rows, cols = weak_threshold_T1_full(a)
        triple = build_csr(a)
        for t in range(1, triple.gamma + 1 if triple.crit else 1):
            csr._residue(triple, t)  # read first, so the products counted are the sweep's steps
        found.clear()
        steps.clear()
        wx = weak_threshold_T1(a)
        assert (wx.t1, wx.rows, wx.cols) == (t1, rows, cols)
        assert found[0] is None and len(steps) == t1 - 1
        steps.clear()
        report = analyze(a)
        crit_rc = max([*rows.values(), *cols.values()], default=None)
        assert (report.t1, report.crit_rc_transient) == (t1, crit_rc)
        assert (report.attains_dm, report.attains_wiel) == (t1 == report.dm, t1 == report.wi)
        if wx.csr.crit is None:
            kinds["acyclic"] += 1
            continue
        connected = len(scc_decompose(a).components) == 1
        if len(wx.csr.crit.nodes) == a.n:  # only weak_threshold_T1 swept
            assert found == [None] and len(steps) <= max(2 * (t1 - 1).bit_length() - 1, 0)
            assert report.t == (transient_T(a) if connected else None)
            kinds["every node critical, no sweep in analyze"] += 1
            kinds["every node critical, n >= 2"] += a.n >= 2
            continue
        kind = "irreducible" if connected else "reducible"
        kinds[kind] += 1
        assert report.t == (transient_T(a) if connected else None)
        gamma, ceiling = wx.csr.gamma, min(wielandt_bound(a.n), dm_bound(wx.csr.crit.girth, a.n))
        periodic_from = row_transients_by_steps(normalized(a).raw(), gamma, ceiling)
        big_t = None if None in periodic_from else max(periodic_from)
        if connected:
            assert found[1] in (None, report.t)
            if found[1] is not None and max(found[1], 1) < ceiling:
                kinds["irreducible, stopped at T before the ceiling"] += 1
        else:
            assert found[1] is None and len(steps) == t1 - 1
        if t1 < (ceiling if big_t is None else max(big_t, 1)):
            kinds[f"{kind}, T1-only stopped before min(T, c)"] += 1
        if any(ti is not None and max(ti, 1) < t1 for ti in periodic_from):
            kinds[f"{kind}, a row retires before T1"] += 1
        if connected and found[1] is not None and any(ti is not None and max(ti, 1) <= found[1] - 2 for ti in periodic_from):
            kinds["irreducible, a row retires 2 steps before T"] += 1
    assert kinds["acyclic"] >= 30 and kinds["reducible"] >= 100 and kinds["irreducible"] >= 100, kinds
    assert kinds["every node critical, no sweep in analyze"] >= 20, kinds
    assert kinds["every node critical, n >= 2"] >= 15, kinds
    assert kinds["irreducible, stopped at T before the ceiling"] >= 100, kinds
    assert kinds["reducible, T1-only stopped before min(T, c)"] >= 60, kinds
    assert kinds["irreducible, T1-only stopped before min(T, c)"] >= 80, kinds
    assert kinds["reducible, a row retires before T1"] >= 50 and kinds["irreducible, a row retires before T1"] >= 140, kinds
    assert kinds["irreducible, a row retires 2 steps before T"] >= 120, kinds


def test_the_sweep_multiplies_only_the_rows_not_yet_periodic(monkeypatch):
    # row i is periodic from T_i on, by the oracle, and retires at
    # max(T_i, 1), where it meets the residue; until then it is one left
    # row of each step's product.  T is the largest T_i.  With transient,
    # on strongly connected input, the sweep stops at max(T, 1), or past
    # the ceiling hands P^t over to _transient, whose products are not
    # its steps; the T1-only sweep multiplies only the rows that fail at
    # t, by the walk powers and csr_at, in full with no start rows, and
    # stops at t1
    left_rows, handovers, int_mul, search = [], [], matrix._int_mul, csr._transient
    starts_given = []

    def recorded(arows, b, starts=None):
        left_rows.append(len(arows)), starts_given.append(starts)
        return int_mul(arows, b, starts)

    monkeypatch.setattr(csr, "_int_mul", recorded)

    def handed_over(norm, t, at, *args):  # where the search starts, with what, after how many products
        handovers.append((t, at, len(left_rows)))
        return search(norm, t, at, *args)

    monkeypatch.setattr(csr, "_transient", handed_over)

    def sweep(a, transient):
        triple = build_csr(a)
        gamma = triple.gamma
        for t in range(1, gamma + 1):
            csr._residue(triple, t)  # read first, so the sweep's products are its steps alone
        left_rows.clear(), handovers.clear(), starts_given.clear()
        t, t1, *_ = csr._sweep(triple, transient)
        at = None
        if handovers:
            (t, at, made), = handovers
            del left_rows[made:], starts_given[made:]  # the search's products
        if not transient:
            assert at is None and t is None and starts_given == [None] * len(left_rows)
            powers, failing = walk_powers(a, t1), []
            for s in range(1, t1):
                q = csr_at(triple, s).raw()
                failing.append(sum(not below([q[i]], [powers[s][i]]) for i in range(a.n)))
            assert left_rows == failing
            return None, list(left_rows)
        if at is None:
            stop = max(t, 1)
        else:  # P^t for the search past the ceiling, retired rows filled from the residue
            stop = t
            assert [[None if x is None else Fraction(x, triple._d) for x in row] for row in at] == walk_power(
                normalized(a), t
            )
            kinds["handed over with rows retired, gamma > 1"] += gamma > 1 and sum(left_rows) < a.n * len(left_rows)
        periodic_from = row_transients_by_steps(normalized(a).raw(), gamma, stop)  # None: past stop
        if at is None:
            assert t == max(periodic_from)
        assert len(left_rows) == stop - 1  # one product a step
        assert [len(starts) for starts in starts_given] == left_rows  # a start row for each left row
        assert left_rows == [sum(ti is None or max(ti, 1) > s for ti in periodic_from) for s in range(1, stop)]
        return periodic_from, list(left_rows)

    # rows periodic from 6, 8, 7, 5, 5, 5, 7 at gamma 3: 36 left rows in 7
    # steps to T = 8; T1 = 8 takes 7 steps too, and the rows failing at
    # each t are those not yet periodic
    kinds = Counter()
    periodic_from, steps = sweep(third_mean_cycle(7), True)
    assert periodic_from == [6, 8, 7, 5, 5, 5, 7] and steps == [7] * 4 + [4, 3, 1]
    assert sweep(third_mean_cycle(7), False)[1] == [7] * 4 + [4, 3, 1]
    rng = random.Random(14)
    for a in [*instances(12, 120, make=irreducible), *instances(13, 120), *(slow_loop(rng) for _ in range(40))]:
        sp = spectrum(a)
        if sp.crit is None:
            continue
        for transient in (True, False) if sp._strongly_connected else (False,):
            _, steps = sweep(a, transient)
            fewer = sum(steps) < a.n * len(steps)
            kinds[f"{'fewer than n rows a step' if fewer else 'n rows every step'}, transient {transient}"] += 1
    assert kinds["fewer than n rows a step, transient True"] >= 100
    assert kinds["fewer than n rows a step, transient False"] >= 50
    assert kinds["handed over with rows retired, gamma > 1"] >= 10


def slow_loop(rng):
    """A random irreducible matrix, n 3..7, with a loop at a node off the
    critical graph weighing lambda - eps, eps 1/64, 1/256 or 1/1024: T
    lies far past the ceiling, and analyze's sweep mostly hands over."""
    while True:
        a = irreducible(rng, rng.randint(3, 7), rng.choice((0.2, 0.45)))
        off = sorted(set(range(a.n)) - spectrum(a).crit.nodes)
        if off:
            raw = [row[:] for row in a.raw()]
            v = rng.choice(off)
            raw[v][v] = max_cycle_mean(a).value - Fraction(1, rng.choice((64, 256, 1024)))
            return MaxPlusMatrix(raw)


def test_analyze_stops_the_sweep_at_T(monkeypatch):
    # M takes at most gamma - 1 products and the residues gamma, C R and
    # one product by A - lambda for each other residue; the sweep
    # max(T, 1) - 1 steps over the powers of A - lambda, and none of
    # B - lambda.  The spectrum, whose Karp rows are products too, is
    # computed before the count
    products = Counter()
    int_mul, sweep = matrix._int_mul, csr._sweep

    def counted(*args):
        products["_int_mul"] += 1
        return int_mul(*args)

    for module in (matrix, spectral, csr):
        if "_int_mul" in vars(module):
            monkeypatch.setattr(module, "_int_mul", counted)
    monkeypatch.setattr(csr, "_sweep", lambda *args: products.update(["_sweep"]) or sweep(*args))
    a = third_mean_cycle(7)  # T = 8, the ceiling is 22
    spectrum(a)
    products.clear()
    report = analyze(a)
    assert (report.t, report.gamma, report.t1) == (8, 3, 8)
    assert products["_sweep"] == 1 and products["_int_mul"] <= 2 * 3 - 1 + 8 - 1
    assert analyze(third_mean_cycle(7)).dm == 22 < wielandt_bound(7)
    # bare cycles are periodic from T = 0; T1 is 1 by convention.  Every
    # node is critical, so analyze runs no sweep but one search from t = 0
    # (see csr.analyze): M = I takes at most 2*(bit_length(gamma) - 1)
    # products, and the search reads only Q_0 = Q_gamma, which is M on a
    # cover (see csr._residue), with no product, and equals P^0 = I.  At
    # n = 1 the packed ints take none
    for n in range(1, 6):
        a = from_entries(n, {(i, (i + 1) % n): 0 for i in range(n)})
        spectrum(a)
        products.clear()
        report = analyze(a)
        assert (report.t, report.gamma, report.t1) == (0, n, 1)
        assert products["_sweep"] == 0 and products["_int_mul"] <= 2 * (n.bit_length() - 1)
    # past the ceiling c = DM(1, 3) = 4 the sweep steps on while its
    # steps cost no more than 2*bit_length(s)*M after s of them, with M =
    # 3^2 + 3^3 the work of squaring the dense P^4: rows 1 and 2 stay
    # active, a step counts n + 2*(n + nnz(P)) = 23, so it hands over
    # after the least s with 23*s > 72*bit_length(s), at t = c + s.  The
    # search then gallops from there, u = T - c - s: a probe at c + s + 2^k
    # for k = 0..b, b = bit_length(u - 1), a square for each k >= 1, and
    # b - 1 probes back, 3*b <= 3*bit_length(T - c - 1) products
    gap = MaxPlusMatrix([[0, -5, None], [-5, Fraction(-1, 10**6), -5], [None, -5, Fraction(-1, 10**6)]])
    spectrum(gap)
    products.clear()
    report = analyze(gap)
    assert (report.t, report.gamma, report.t1, report.dm) == (2 * 10**7, 1, 2, 4)
    gamma, ceiling = 1, 4
    steps = next(s for s in range(1, 100) if 23 * s > 2 * s.bit_length() * (3**2 + 3**3))
    tail = 3 * (report.t - ceiling - 1).bit_length()
    assert products["_int_mul"] <= 2 * gamma - 1 + (ceiling - 1 + steps) + tail



def test_analyze_searches_once_on_the_wielandt_case_n_family(monkeypatch):
    # a case-n Wielandt instance has its Hamiltonian cycle as critical
    # graph, gamma = n, and T = T1 = Wi(n): every node is critical, so
    # analyze runs no sweep but one search from t = 0 (see csr.analyze).
    # M takes at most 2*(bit_length(gamma) - 1) products, the residues
    # none, as the critical graph covers every node as one component (see
    # csr._residue), and the search, whose probes from t = 0 are the
    # squares themselves, 2*bit_length(T - 1) - 1.  The spectrum, whose
    # Karp rows are products too, is computed before the count
    products = Counter()
    int_mul, sweep = matrix._int_mul, csr._sweep

    def counted(*args):
        products["_int_mul"] += 1
        return int_mul(*args)

    for module in (matrix, spectral, csr):
        if "_int_mul" in vars(module):
            monkeypatch.setattr(module, "_int_mul", counted)
    monkeypatch.setattr(csr, "_sweep", lambda *args: products.update(["_sweep"]) or sweep(*args))
    for n in range(6, 17):
        for seed in (0, 1):
            a = generate_wielandt(n, seed, case="n")
            spectrum(a)
            products.clear()
            report = analyze(a)
            wi = wielandt_bound(n)
            assert (report.gamma, report.t, report.t1, report.crit_rc_transient) == (n, wi, wi, wi)
            assert products["_sweep"] == 0, (n, seed)
            assert products["_int_mul"] <= 2 * n.bit_length() + 2 * wi.bit_length(), (n, seed, products)


# ---------------------------------------------------------------------------
# one integer form of A - lambda per analysis


def test_analyze_scales_once_and_runs_no_fraction_level_products(monkeypatch):
    # the spectrum is computed once, though analyze and build_csr both ask
    # for it; it reads A's own int rows and turns them into those of A -
    # lambda once (_normalized), and everything after reads those.  The
    # report never reads B, so no Nachtigall matrix is built either.
    fraction_level = ("mat_mul", "mat_power", "kleene_star", "scalar_times", "nachtigall_matrix")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (matrix, spectral, csr):
        for name in ("_spectrum", "_normalized", *fraction_level):
            if name in vars(module):
                monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    loop = from_entries(3, {(0, 0): 1, (0, 1): 0, (1, 2): -1, (2, 0): 0})
    for gamma, a in ((1, loop), (3, third_mean_cycle(6))):
        calls.clear()
        report = csr.analyze(a)
        assert report.gamma == gamma and report.t is not None
        assert calls["_spectrum"] == 1 and calls["_normalized"] == 1
        assert [calls[name] for name in fraction_level] == [0] * len(fraction_level)


def test_verdicts_and_walk_oracle_read_the_spectrums_rows(monkeypatch):
    # the critical graph, both searches, every condition and the walk DP
    # run on the spectrum's int rows and successor lists: no scalar-level
    # arithmetic runs
    instances = [generate_dm(8, 3, 0), generate_dm(5, 3, 1), generate_wielandt(6, 0), generate_wielandt(6, 1, case="n")]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module in (semiring, matrix, digraph, spectral, csr, extremal):
        for name in ("scalar_times", "scalar_power", "negate"):
            if name in vars(module):
                monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    rng = random.Random(3)
    for a in instances:
        numbering = tuple(rng.sample(range(a.n), a.n))
        a = MaxPlusMatrix(extremal.apply_numbering(a, numbering).raw())  # a fresh spectrum, and a search to do
        spectrum(a)
        for verify in (extremal.verify_dm, extremal.verify_wielandt):
            verify(a)
            verify(a, numbering=tuple(range(a.n)))
        extremal.verify_crit_rc_dm(a)
        extremal.verify_crit_rc_wielandt(a)
        extremal.twice_optimal_walk(a, 0, a.n - 1, 5)
    assert calls == Counter(), calls


# ---------------------------------------------------------------------------
# the generators' point check of T1 == bound


def perturbed(rng, a):
    """a with 1 to 3 entries overwritten by -inf or a random weight."""
    raw = [row[:] for row in a.raw()]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(a.n), rng.randrange(a.n)
        raw[i][j] = rng.choice((None, Fraction(rng.randint(-12, 12), rng.choice((1, 2, 5)))))
    return MaxPlusMatrix(raw)


def test_point_check_matches_the_full_sweep():
    # csr._t1_at_ceiling(a, bound) is T1 == bound with bound the ceiling,
    # for every bound Wi(n) and DM(g, n), g = 1..n, against the oracle; it
    # holds both where it reads T1 as the critical graph's exponent (the
    # graph covers every node, one component of cyclicity 1) and where it
    # squares A - lambda
    rng = random.Random(13)
    attaining = []
    for n in range(2, 9):
        for seed in range(3):
            attaining += [generate_wielandt(n, seed, case=case) for case in ("n-1", "n")]
            attaining += [generate_dm(n, g, seed) for g in range(2, n) if gcd(g, n) == 1]
    cases = attaining + [perturbed(rng, a) for a in attaining]
    cases += [dm_skeleton(n, g) for n in range(1, 9) for g in range(1, n + 1)]
    cases += [wielandt_skeleton(n) for n in range(2, 9)]
    for _ in range(2000):
        n, density = rng.randint(1, 7), rng.random()
        cases.append(
            MaxPlusMatrix(
                [
                    [Fraction(rng.randint(-10, 10), rng.choice((1, 2, 5))) if rng.random() < density else None for _ in range(n)]
                    for _ in range(n)
                ]
            )
        )
    outcomes = Counter()
    for a in cases:
        t1 = weak_threshold_T1_full(a)[0]
        crit = spectrum(a).crit
        ceiling = None if crit is None else min(wielandt_bound(a.n), dm_bound(crit.girth, a.n))
        exponent = crit is not None and len(crit.nodes) == a.n and len(crit.scc.components) == 1 and crit.cyclicity == 1
        for bound in {wielandt_bound(a.n), *(dm_bound(g, a.n) for g in range(1, a.n + 1))}:
            check = csr._t1_at_ceiling(a, bound)
            assert check == (t1 == bound and bound == ceiling), (a, bound)
            outcomes[f"positive, {'exponent' if exponent else 'squared'}"] += check
            outcomes["T1 at a bound below the ceiling"] += t1 == bound != ceiling
    assert outcomes["positive, exponent"] >= 50 and outcomes["positive, squared"] >= 50, outcomes
    assert outcomes["T1 at a bound below the ceiling"] >= 1


def test_the_ceiling_check_steps_to_c_only_the_rows_failing_at_c_minus_1(monkeypatch):
    # a row that holds at t holds at t + 1 (see weak_threshold_T1), so
    # _t1_at_ceiling multiplies by P only the rows of P^(c-1) that fail
    # there, in full, and tests only those at c, each test giving the rows
    # and critical columns of the oracle's excess entries; on a generated
    # instance that squares (case-n Wielandt, where gamma = n) that is one
    # row.  On a critical graph that covers every node, one component of
    # cyclicity 1 (every generated DM and case-(n-1) Wielandt instance), T1
    # is its exponent: no power of A is taken and no row tested
    rng = random.Random(29)
    generated = []
    for n in range(2, 13):
        for seed in range(3):
            generated += [generate_wielandt(n, seed, case=case) for case in ("n-1", "n")]
            generated += [generate_dm(n, g, seed) for g in range(2, n) if gcd(g, n) == 1]
    cases = generated + [perturbed(rng, a) for a in generated if a.n <= 8]
    for _ in range(300):
        n = rng.randint(2, 7)
        cases.append(sparse(rng, n, rng.random()))
    excess, int_mul, int_power = csr._excess, matrix._int_mul, matrix._int_power
    tests, steps, powers = [], [], []

    def tested(triple, t, at, rows):  # with the entries where Q_t exceeds at, by the oracle
        out = excess(triple, t, at, rows)
        entries = excess_entries(triple, t, at, rows)
        assert out[0] == sorted({i for i, _ in entries}) and sorted(out[1]) == sorted({j for _, j in entries} & triple.crit.nodes)
        tests.append((t, at, rows, entries))
        return out

    monkeypatch.setattr(csr, "_excess", tested)
    monkeypatch.setattr(csr, "_int_mul", lambda arows, b, starts=None: steps.append((arows, starts)) or int_mul(arows, b, starts))
    monkeypatch.setattr(csr, "_int_power", lambda rows, t: powers.append(t) or int_power(rows, t))
    stepped, kinds = Counter(), Counter()
    for k, a in enumerate(cases):
        triple = build_csr(a)
        if triple.crit is None or a.n == 1:
            continue
        c = csr._ceiling(triple)
        for t in (c - 1, c):
            csr._residue(triple, t)  # read before, so the one product left is the step
        tests.clear()
        steps.clear()
        powers.clear()
        holds = csr._t1_at_ceiling(a, c)
        origin = "generated" if k < len(generated) else "other"
        crit = triple.crit
        if len(crit.nodes) == a.n and len(crit.scc.components) == 1 and crit.cyclicity == 1:
            assert tests == steps == powers == []
            assert holds == (weak_threshold_T1(a).t1 == c)
            kinds[f"{origin}, exponent"] += 1
            if origin == "generated":
                assert holds, (a, c)
            continue
        assert powers == [c - 1]
        (t, power, rows, excess_below), *at_c = tests
        assert (t, list(rows)) == (c - 1, list(range(a.n)))
        failing = sorted({i for i, _ in excess_below})
        if failing:
            assert steps == [([power[i] for i in failing], None)]  # in full, with no start rows
            assert [(t, rows) for t, _, rows, _ in at_c] == [(c, failing)]
            assert holds == (not at_c[0][3])
        else:
            assert steps == at_c == [] and not holds
        stepped[len(failing)] += 1
        kinds[f"{origin}, squared"] += 1
        if origin == "generated":
            assert holds and len(failing) == 1, (a, c)
    assert stepped[1] >= kinds["generated, squared"] >= 30 and stepped[0] >= 100, (stepped, kinds)
    assert kinds["generated, exponent"] >= 100 and kinds["other, exponent"] >= 20 and kinds["other, squared"] >= 300, kinds


@pytest.mark.parametrize(
    "generate, squares",
    [(lambda seed: generate_wielandt(12, seed, case="n"), True), (lambda seed: generate_dm(12, 11, seed), False)],
    ids=["wielandt-n", "dm-g11"],
)
def test_generators_check_T1_at_two_powers_only(monkeypatch, generate, squares):
    # Case-n Wielandt, gamma = n: the sweep runs from c - 1 = bound - 1
    # alone, tests t = c - 1 and t = c only, and takes O(log bound)
    # products beyond the CSR triple's own (its residues, computed when
    # first read, included), all of them powers of A - lambda.  DM with
    # g = n - 1: the critical graph covers every node, one component of
    # cyclicity 1, and T1 is its exponent, read on bit rows with no sweep
    # and no product at all
    calls, depth, tested = Counter(), [0], []
    int_mul, sweep, excess = matrix._int_mul, csr._sweep, csr._excess

    def counted(*args):
        calls["_int_mul"] += depth[0] == 0
        return int_mul(*args)

    def inside(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def sweep_from_c_minus_1(triple, transient, start):
        assert squares and (transient, start) == (False, bound - 1), "the generator ran the sweep from t = 1"
        calls["_sweep"] += 1
        return sweep(triple, transient, start)

    for module in (matrix, spectral, csr, extremal):
        if "_int_mul" in vars(module):
            monkeypatch.setattr(module, "_int_mul", counted)
        for name in ("build_csr", "spectrum", "_residue"):
            if name in vars(module):
                monkeypatch.setattr(module, name, inside(vars(module)[name]))
        if "_sweep" in vars(module):
            monkeypatch.setattr(module, "_sweep", sweep_from_c_minus_1)
    monkeypatch.setattr(csr, "_excess", lambda triple, t, *args: tested.append(t) or excess(triple, t, *args))
    bound = wielandt_bound(12)  # = DM(11, 12) = 122
    for seed in range(3):
        calls.clear(), tested.clear()
        a = generate(seed)
        assert (spectrum(a).crit.cyclicity == 1) != squares
        assert 0 < calls["_int_mul"] <= 2 * bound.bit_length() + 4 if squares else calls["_int_mul"] == 0
        assert (calls["_sweep"], tested) == ((1, [bound - 1, bound]) if squares else (0, []))
    monkeypatch.undo()
    assert weak_threshold_T1(a).t1 == bound
