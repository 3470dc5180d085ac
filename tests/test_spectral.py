import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from maxplus import (
    MaxPlusMatrix,
    as_scalar,
    critical_components,
    critical_graph,
    extremal,
    from_entries,
    generate_dm,
    generate_wielandt,
    max_cycle_mean,
    render_matrix,
    scalar_times,
    scale,
    scc_decompose,
    spectral,
    spectrum,
    visualize,
    zeros,
)
from conftest import rand_weight, random_cyclic_matrix, random_irreducible, random_matrix, random_reducible

from oracles import (
    critical_arcs_brute,
    critical_girth_cyclicity_brute,
    cycles_by_permutations,
    max_cycle_mean_brute,
    spectrum_by_tarjan,
    spectrum_differences,
)

N = None


def test_max_cycle_mean_examples():
    assert max_cycle_mean(MaxPlusMatrix([[3]])).value == 3
    assert max_cycle_mean(MaxPlusMatrix([[-1, 0], [0, -2]])).value == 0
    assert max_cycle_mean(zeros(3)).is_bottom


def test_max_cycle_mean_matches_enumeration(rng):
    for n in range(2, 8):
        for _ in range(8):
            a = random_matrix(rng, n, density=0.5)
            brute = max_cycle_mean_brute(a)
            got = max_cycle_mean(a)
            if brute is None:
                assert got.is_bottom
            else:
                assert got.value == brute


def test_critical_graph_examples():
    # a critical 2-cycle with strictly lighter loops
    a = MaxPlusMatrix([[-1, 0], [0, -2]])
    crit = critical_graph(a)
    assert crit.arcs == {(0, 1), (1, 0)}
    assert crit.nodes == {0, 1}
    assert crit.girth == 2 and crit.cyclicity == 2

    # all-zero entries: every arc is critical
    b = MaxPlusMatrix([[0, 0], [0, 0]])
    assert critical_graph(b).arcs == {(0, 0), (0, 1), (1, 0), (1, 1)}

    with pytest.raises(ValueError):
        critical_graph(zeros(2))


def test_critical_graph_matches_enumeration(rng):
    for n in range(2, 7):
        for _ in range(10):
            a = random_cyclic_matrix(rng, n, density=0.5)
            assert critical_graph(a).arcs == critical_arcs_brute(a)


def test_spectrum_acyclic():
    s = spectrum(zeros(2))
    assert s.lam.is_bottom and s.crit is None


def test_crit_scc_agrees_with_digraph_recomputation(rng):
    # each component's girth and cyclicity, against the public digraph API
    # on the critical arcs and against the critical cycles themselves;
    # weights in {0, -1} make ties, hence critical graphs of several parts
    multi = 0
    for k in range(240):
        if k % 2:
            a = random_cyclic_matrix(rng, 6, density=0.5)
        else:
            a = random_cyclic_matrix(rng, 6, density=0.6)
            a = MaxPlusMatrix([[None if x is None else -(x.numerator % 2) for x in row] for row in a.raw()])
        crit = critical_graph(a)
        sub = from_entries(a.n, {(i, j): a.raw()[i][j] for (i, j) in crit.arcs})
        again = scc_decompose(sub, crit.nodes)
        assert again == crit.scc
        lam = max_cycle_mean_brute(a)
        critical = [c for c, w in cycles_by_permutations(a).items() if w / len(c) == lam]
        for comp in crit.scc.components:
            inside = [len(c) for c in critical if set(c) <= comp.nodes]
            assert (comp.girth, comp.cyclicity) == (min(inside), gcd(*inside))
        assert crit.girth == max(c.girth for c in again.components)
        multi += len(crit.scc.components) > 1
    assert multi >= 30, multi


def _binary(rng, a):
    """a with every finite entry replaced by 0 or 1: ties, hence critical
    graphs of several components."""
    return MaxPlusMatrix([[None if x is None else rng.randint(0, 1) for x in row] for row in a.raw()])


def _acyclic(rng, n):
    """Random arcs from each node to later ones only, relabeled at random."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [[None] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            if rng.random() < 0.5:
                rows[order[p]][order[q]] = rand_weight(rng)
    return MaxPlusMatrix(rows)


def spectrum_kinds():
    """(kind, matrix) pairs: 1200 matrices with n from 1 to 12, irreducible,
    reducible and acyclic, with random or {0, 1} weights, and the 1 x 1
    matrices with and without a loop."""
    rng = random.Random(2020)
    makers = [
        ("irreducible", lambda n: random_irreducible(rng, n, rng.choice((0.1, 0.3)))),
        ("reducible", lambda n: random_reducible(rng, n, rng.choice((0.2, 0.4, 0.7)))),
        ("sparse", lambda n: random_matrix(rng, n, rng.choice((0.1, 0.2, 0.4)))),
        ("acyclic", lambda n: _acyclic(rng, n)),
        ("binary irreducible", lambda n: _binary(rng, random_irreducible(rng, n, 0.2))),
        ("binary reducible", lambda n: _binary(rng, random_reducible(rng, n, rng.choice((0.2, 0.4))))),
    ]
    for k in range(1200):
        kind, make = makers[k % len(makers)]
        yield kind, make(1 + k // len(makers) % 12)
    yield "one node with a loop", MaxPlusMatrix([[Fraction(-2, 3)]])
    yield "one node without a loop", MaxPlusMatrix([[None]])


def test_spectrum_matches_the_tarjan_path():
    # lambda, strong connectivity and the critical graph, components in
    # order with their girths and cyclicities, as found by Tarjan's
    # components, Karp on each and Tarjan again on the critical arcs
    kinds = Counter()
    for kind, a in spectrum_kinds():
        lam, strongly_connected, crit = spectrum_by_tarjan(a)
        sp = spectral._spectrum(a)
        assert (sp.lam.value, sp._strongly_connected) == (lam, strongly_connected), kind
        assert max_cycle_mean(a).value == lam
        if crit is None:
            assert sp.crit is None
        else:
            got = sp.crit
            assert (got.nodes, got.arcs, got.scc.components, got.girth, got.cyclicity) == crit, kind
            assert [c.nodes for c in critical_components(got)] == [c.nodes for c in crit[2]]
        kinds[kind] += 1
        kinds["several critical components"] += crit is not None and len(crit[2]) > 1
        kinds["cyclic, not strongly connected"] += lam is not None and not strongly_connected
        kinds["acyclic, n >= 2"] += lam is None and a.n > 1
    assert kinds["several critical components"] >= 100 and kinds["cyclic, not strongly connected"] >= 100, kinds
    assert kinds["acyclic, n >= 2"] >= 100, kinds


@pytest.mark.parametrize("p01", [-1, 1])
def test_a_critical_arc_between_components_is_an_assertion(p01):
    # Hand-built rows of A - lambda, and of a closure that no matrix has:
    # the arc (0, 1) closes a circuit of weight 0 with P+(1, 0), but
    # P+(0, 1) + P+(1, 0) != 0 puts 0 and 1 in separate components.  The
    # closure it replaces, with P+(0, 1) = 0, joins them.
    norm = [[0, 0], [None, 0]]
    with pytest.raises(AssertionError, match=r"critical arc \(0,1\) crosses components"):
        spectral._critical_graph_at(norm, [[0, p01], [0, 0]])
    crit = spectral._critical_graph_at(norm, [[0, 0], [0, 0]])
    assert [c.nodes for c in crit.scc.components] == [{0, 1}]
    assert crit.arcs == {(0, 0), (0, 1), (1, 1)}


def _generator_skeletons(monkeypatch):
    """The skeletons a1 that the generators certify, copied with empty
    memos: DM at every coprime (g, n) and Wielandt in both cases, n =
    2..16, seeds 0..2."""
    skeletons, certify = [], spectral._hamiltonian_spectrum
    monkeypatch.setattr(extremal, "_hamiltonian_spectrum", lambda a: skeletons.append(a) or certify(a))
    for n in range(2, 17):
        for seed in range(3):
            for g in range(2, n):
                if gcd(g, n) == 1:
                    generate_dm(n, g, seed)
            for case in ("n-1", "n"):
                generate_wielandt(n, seed, case=case)
    return [MaxPlusMatrix._from_ints(a._d, a._rows) for a in skeletons]


def _reweighted(rng, a):
    """a_ij - d_i + d_j + c for random d and c: the same critical graph,
    lambda shifted by c."""
    d = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5))) for _ in range(a.n)]
    c = Fraction(rng.randint(-9, 9), rng.choice((1, 3)))
    return MaxPlusMatrix([[None if x is None else x - d[i] + d[j] + c for j, x in enumerate(row)] for i, row in enumerate(a.raw())])


def _edited(a, i, j, x):
    """A copy of a with entry (i, j) set to x."""
    raw = a.raw()
    raw[i][j] = x
    return MaxPlusMatrix(raw)


def _hamiltonian_critical(a):
    """Is the cycle 0 -> 1 -> ... -> n-1 -> 0 an arc set of a's critical
    graph, as spectral._spectrum finds it?"""
    crit = spectral._spectrum(a).crit
    return crit is not None and all((i, (i + 1) % a.n) in crit.arcs for i in range(a.n))


def test_the_hamiltonian_certificate_matches_karp_and_the_closure(monkeypatch):
    # spectral._hamiltonian_spectrum certifies a spectrum off the cycle
    # 0 -> 1 -> ... -> n-1 -> 0 and its potential, with no Karp table and
    # no closure: on every generator skeleton and reweighted copies it
    # equals spectral._spectrum in every field, and the brute-force
    # cycle oracles for n <= 7.  It refuses, with None, exactly when the
    # cycle is missing an arc or not critical: one off-cycle arc raised
    # above its tight value (by one unit of the spectrum's scale, or
    # more), one cycle arc removed, random matrices with a planted cycle
    rng, outcomes = random.Random(39), Counter()

    def check(a):
        sp = spectral._hamiltonian_spectrum(a)
        critical = _hamiltonian_critical(a)
        assert (sp is not None) == critical, render_matrix(a)
        outcomes["certified" if critical else "refused"] += 1
        if critical:
            a._spectrum = sp
            assert spectrum_differences(a) == [], render_matrix(a)
            if a.n <= 7:
                assert sp.lam.value == max_cycle_mean_brute(a) and sp.crit.arcs == critical_arcs_brute(a)
                assert (sp.crit.girth, sp.crit.cyclicity) == critical_girth_cyclicity_brute(a)
                outcomes["against the brute force"] += 1
        return sp

    for a1 in _generator_skeletons(monkeypatch):
        n = a1.n
        for a in (a1, _reweighted(rng, a1)):
            sp = check(a)
            assert sp is not None
            i = rng.randrange(n)
            j = rng.choice([j for j in range(n) if j != (i + 1) % n])
            tight = sp.lam.value + Fraction(sp._closure[i][j], sp._d)
            raise_by = Fraction(1, sp._d) if rng.random() < 0.5 else Fraction(rng.randint(1, 9), rng.choice((1, 4)))
            assert check(_edited(a, i, j, tight + raise_by)) is None
            assert check(_edited(a, i, (i + 1) % n, None)) is None
    for _ in range(300):
        n = rng.randint(2, 9)
        raw = random_matrix(rng, n, rng.choice((0.2, 0.5, 0.8))).raw()
        for i in range(n):
            if raw[i][(i + 1) % n] is None:
                raw[i][(i + 1) % n] = rand_weight(rng)
        outcomes["planted, certified" if check(MaxPlusMatrix(raw)) is not None else "planted, refused"] += 1
    assert outcomes["certified"] >= 500 and outcomes["refused"] >= 1000 and outcomes["against the brute force"] >= 150, outcomes
    assert outcomes["planted, certified"] >= 20 and outcomes["planted, refused"] >= 100, outcomes


def test_lambda_and_crit_invariant_under_scalar_shift(rng):
    for _ in range(10):
        a = random_cyclic_matrix(rng, 5)
        alpha = as_scalar(Fraction(7, 3))
        b = scalar_times(alpha, a)
        assert max_cycle_mean(b).value == max_cycle_mean(a).value + alpha.value
        assert critical_graph(b).arcs == critical_graph(a).arcs


def test_lambda_and_crit_invariant_under_diagonal_scaling(rng):
    from maxplus import DiagonalScaling
    from conftest import rand_weight

    for _ in range(10):
        a = random_cyclic_matrix(rng, 5)
        d = DiagonalScaling([rand_weight(rng) for _ in range(5)])
        b = scale(a, d)
        assert max_cycle_mean(b) == max_cycle_mean(a)
        assert critical_graph(b).arcs == critical_graph(a).arcs


def test_visualize_forced_two_cycle():
    a = MaxPlusMatrix([[N, 1], [-1, N]])
    d, b = visualize(a)
    assert b == MaxPlusMatrix([[N, 0], [0, N]])


def test_visualize_postcondition_random(rng):
    for _ in range(200):
        a = random_irreducible(rng, rng.randint(2, 6))
        lam = max_cycle_mean(a)
        crit = critical_graph(a)
        d, b = visualize(a)
        for i, j, w in b.entries():
            if (i, j) in crit.arcs:
                assert w == lam
            else:
                assert w < lam


def test_visualize_of_visualized_stays_visualized():
    a = MaxPlusMatrix([[0, 0], [0, 0]])
    d, b = visualize(a)
    assert b == a  # every arc is critical, so every entry stays at lambda = 0


def test_visualize_rejects_acyclic():
    with pytest.raises(ValueError):
        visualize(from_entries(2, {(0, 1): 5}))


def test_is_visualized_examples():
    # spectral._check_visualized, the postcondition visualize asserts:
    # lambda on every critical arc, below it or -inf on every other entry
    def check(b, a):  # b against a's lambda and critical graph
        sp = spectrum(a)
        return spectral._check_visualized(b, sp.lam, sp.crit)

    allzero = MaxPlusMatrix([[0, 0], [0, 0]])
    assert check(allzero, allzero)
    a = from_entries(3, {(0, 1): 0, (1, 0): 0, (1, 2): -1})
    assert check(a, a)
    for b in (
        from_entries(3, {(0, 1): 0, (1, 0): 0, (1, 2): 0}),  # a non-critical arc at lambda
        from_entries(3, {(0, 1): 0, (1, 0): 0, (1, 2): 1}),  # an entry above lambda
        from_entries(3, {(0, 1): 0, (1, 0): -1}),  # a critical arc below lambda
        from_entries(3, {(0, 1): 0}),  # a critical arc at -inf
    ):
        assert not check(b, a)


def test_visualized_entries_bounded_by_lambda(rng):
    for _ in range(20):
        a = random_irreducible(rng, 4)
        _, b = visualize(a)
        lam = max_cycle_mean(b)
        assert all(w <= lam for _, _, w in b.entries())
