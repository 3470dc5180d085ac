from fractions import Fraction
from math import gcd

import pytest

from maxplus import (
    MaxPlusMatrix,
    as_scalar,
    critical_graph,
    from_entries,
    is_strictly_visualized,
    is_visualized,
    max_cycle_mean,
    scalar_times,
    scale,
    scc_decompose,
    spectrum,
    visualize,
    zeros,
)
from maxplus.digraph import WeightedDigraph
from conftest import random_cyclic_matrix, random_irreducible, random_matrix

from oracles import critical_arcs_brute, cycles_by_permutations, max_cycle_mean_brute

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
        sub = WeightedDigraph(
            a.n, {(i, j): a[i, j] for (i, j) in crit.arcs}
        )
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
        assert is_visualized(b) and is_strictly_visualized(b)


def test_visualize_of_visualized_stays_visualized():
    a = MaxPlusMatrix([[0, 0], [0, 0]])
    d, b = visualize(a)
    assert is_strictly_visualized(b)


def test_visualize_rejects_acyclic():
    with pytest.raises(ValueError):
        visualize(from_entries(2, {(0, 1): 5}))


def test_is_visualized_examples():
    allzero = MaxPlusMatrix([[0, 0], [0, 0]])
    assert is_visualized(allzero) and is_strictly_visualized(allzero)
    # non-critical arc sitting exactly at lambda: visualized but not strictly
    a = from_entries(3, {(0, 1): 0, (1, 0): 0, (1, 2): 0})
    assert is_visualized(a)
    assert not is_strictly_visualized(a)
    # entry above lambda on a non-critical arc
    b = from_entries(3, {(0, 1): 0, (1, 0): 0, (1, 2): 1})
    assert not is_visualized(b)


def test_visualized_entries_bounded_by_lambda(rng):
    for _ in range(20):
        a = random_irreducible(rng, 4)
        _, b = visualize(a)
        lam = max_cycle_mean(b)
        assert all(w <= lam for _, _, w in b.entries())
