import random
import re
from collections import Counter
from math import gcd

import pytest

from maxplus import (
    MaxPlusMatrix,
    enumerate_cycles,
    from_entries,
    identity,
    global_cyclicity,
    maximal_girth,
    scc_decompose,
    wielandt_skeleton,
    zeros,
)
from conftest import random_matrix

from maxplus.digraph import _cycles, _decomposition, _support
from oracles import cycles_by_permutations, cycles_of_length_by_filter, hamiltonian_cycles_dfs, tarjan

N = None


def cycle_matrix(n):
    return from_entries(n, {(i, (i + 1) % n): 0 for i in range(n)})


def test_the_readers_take_the_finite_entries_as_arcs():
    assert enumerate_cycles(zeros(3)) == []
    assert [c.nodes for c in enumerate_cycles(identity(3))] == [(0,), (1,), (2,)]
    a = MaxPlusMatrix([[N, 0], [1, N]])
    assert [(c.nodes, c.weight.value) for c in enumerate_cycles(a)] == [((0, 1), 1)]


def test_scc_decompose_refuses_nodes_out_of_range():
    a = cycle_matrix(3)
    for nodes in ([5], [-1], [0, -1, 3]):
        with pytest.raises(ValueError, match=re.escape(f"nodes {sorted(set(nodes) - {0})} out of range for n=3")):
            scc_decompose(a, nodes)
    assert scc_decompose(a, [0, 1]).components == scc_decompose(a, iter([1, 0])).components


def test_scc_decompose_matches_tarjan_on_random_node_subsets():
    # the components read off the closure against Tarjan's, each with the
    # girth and cyclicity _decomposition gives it; loops included, and
    # node subsets from empty through singletons to all nodes
    rng = random.Random(36)
    kinds = Counter()
    for _ in range(800):
        n = rng.randint(1, 9)
        a = random_matrix(rng, n, density=rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
        nodes = rng.sample(range(n), rng.choice((0, 1, rng.randint(0, n), n)))
        comps = sorted(map(frozenset, tarjan(_support(a), nodes)), key=min)
        got = scc_decompose(a, None if len(nodes) == n and rng.random() < 0.5 else nodes)
        assert got == _decomposition(_support(a), comps), (a.raw(), nodes)
        kinds[min(len(nodes), 2)] += 1
        kinds["loop-free singleton"] += any(c.girth is None for c in got.components)
        kinds["several cyclic components"] += sum(c.girth is not None for c in got.components) > 1
    assert min(kinds.values()) >= 30, kinds


def test_scc_single_cycle():
    d = scc_decompose(cycle_matrix(5))
    assert len(d.components) == 1
    comp = d.components[0]
    assert comp.nodes == frozenset(range(5))
    assert comp.girth == 5 and comp.cyclicity == 5


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_scc_wielandt_digraph(n):
    # Hamiltonian cycle plus an (n-1)-cycle chord: girth n-1, cyclicity 1.
    d = scc_decompose(wielandt_skeleton(n))
    assert len(d.components) == 1
    comp = d.components[0]
    assert comp.girth == n - 1
    assert comp.cyclicity == gcd(n, n - 1) == 1
    # cross-check both against enumerated cycle lengths
    lengths = [c.length for c in enumerate_cycles(wielandt_skeleton(n))]
    assert comp.girth == min(lengths)
    g = 0
    for ln in lengths:
        g = gcd(g, ln)
    assert comp.cyclicity == g


def test_two_disjoint_two_cycles():
    a = from_entries(4, {(0, 1): 0, (1, 0): 0, (2, 3): 0, (3, 2): 0})
    d = scc_decompose(a)
    assert len(d.components) == 2
    assert maximal_girth(d) == 2
    assert global_cyclicity(d) == 2


def test_maximal_girth_examples():
    # girth-2 and girth-3 simple cycles in separate components
    a = from_entries(5, {(0, 1): 0, (1, 0): 0, (2, 3): 0, (3, 4): 0, (4, 2): 0})
    d = scc_decompose(a)
    assert maximal_girth(d) == 3
    assert global_cyclicity(d) == 6
    assert maximal_girth(scc_decompose(cycle_matrix(6))) == 6


def test_maximal_girth_rejects_acyclic():
    a = from_entries(3, {(0, 1): 0, (1, 2): 0})
    with pytest.raises(ValueError):
        maximal_girth(scc_decompose(a))


def test_global_cyclicity_rejects_acyclic_component():
    a = from_entries(3, {(0, 1): 0, (1, 0): 0})  # node 2 is an acyclic component
    with pytest.raises(ValueError):
        global_cyclicity(scc_decompose(a))


def test_cyclicity_gcd_within_one_component():
    # one SCC with cycle lengths 3 and 12 only -> cyclicity 3
    arcs = {(i, (i + 1) % 12): 0 for i in range(12)}
    arcs[(2, 0)] = 0  # 3-cycle 0,1,2
    d = scc_decompose(from_entries(12, arcs))
    assert len(d.components) == 1
    assert d.components[0].cyclicity == 3
    assert d.components[0].girth == 3


def test_coprime_cycle_lengths_give_cyclicity_one():
    # strongly connected with cycle lengths g and n coprime
    a = from_entries(5, {(i, (i + 1) % 5): 0 for i in range(5)} | {(2, 0): 0})
    d = scc_decompose(a)
    assert global_cyclicity(d) == 1


def test_enumerate_cycles_examples(rng):
    two = from_entries(2, {(0, 1): 1, (1, 0): 2})
    cycles = enumerate_cycles(two)
    assert [(c.nodes, c.length, c.weight.value) for c in cycles] == [((0, 1), 2, 3)]

    complete3 = MaxPlusMatrix([[N, 0, 0], [0, N, 0], [0, 0, N]])
    cycles = enumerate_cycles(complete3)
    assert sum(1 for c in cycles if c.length == 2) == 3
    assert sum(1 for c in cycles if c.length == 3) == 2

    chain = from_entries(3, {(0, 1): 0, (1, 2): 0})
    assert enumerate_cycles(chain) == []


def test_enumerate_cycles_size_guard():
    with pytest.raises(ValueError):
        enumerate_cycles(zeros(9))
    enumerate_cycles(zeros(9), max_n=9)


def test_enumerate_cycles_against_permutation_bruteforce(rng):
    for n in (2, 3, 4, 5):
        for _ in range(5):
            a = random_matrix(rng, n, density=0.5)
            got = {(c.nodes, c.weight.value) for c in enumerate_cycles(a)}
            want = set(cycles_by_permutations(a).items())
            assert got == want
            for cap in range(n + 1):
                got = {(c.nodes, c.weight.value) for c in enumerate_cycles(a, max_length=cap)}
                assert got == {(nodes, w) for nodes, w in want if len(nodes) <= cap}


def test_cycle_dfs_matches_the_old_searches():
    # _cycles(succ, k) against the Hamiltonian DFS and the enumerate-then-
    # filter search it replaced, list for list and in order, for every k
    rng = random.Random(12)
    for _ in range(320):
        n = rng.randint(1, 8)
        density = rng.choice((0.15, 0.3, 0.5, 0.8, 1.0))
        loops = rng.random() < 0.5
        succ = [[j for j in range(n) if (loops or i != j) and rng.random() < density] for i in range(n)]
        for k in range(-1, n + 2):
            assert _cycles(succ, k) == cycles_of_length_by_filter(succ, k), (succ, k)
        assert _cycles(succ, n) == hamiltonian_cycles_dfs(succ), succ


def test_girth_and_cyclicity_match_enumeration(rng):
    for n in (3, 4, 5, 6, 7, 8):
        for _ in range(5):
            a = random_matrix(rng, n, density=0.45)
            d = scc_decompose(a)
            cycles = enumerate_cycles(a, max_n=8)
            for comp in d.components:
                lens = [c.length for c in cycles if set(c.nodes) <= comp.nodes]
                if comp.girth is None:
                    assert not lens
                else:
                    assert comp.girth == min(lens)
                    acc = 0
                    for ln in lens:
                        acc = gcd(acc, ln)
                    assert comp.cyclicity == acc


def test_scc_invariant_under_renumbering(rng):
    for _ in range(5):
        a = random_matrix(rng, 6, density=0.4)
        perm = list(range(6))
        rng.shuffle(perm)
        b = MaxPlusMatrix(
            [[a.raw()[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
        )
        da = scc_decompose(a)
        db = scc_decompose(b)
        inv = {node: pos for pos, node in enumerate(perm)}
        mapped = sorted(
            (tuple(sorted(inv[v] for v in comp.nodes)), comp.girth, comp.cyclicity)
            for comp in da.components
        )
        got = sorted(
            (tuple(sorted(comp.nodes)), comp.girth, comp.cyclicity)
            for comp in db.components
        )
        assert mapped == got

