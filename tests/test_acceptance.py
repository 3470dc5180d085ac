"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single `criterion N: PASS` line on success (visible
with `pytest -s` or in captured output).  Every expected value is either
a closed-form integer bound or recomputed by an independent brute-force
oracle; no tolerances appear anywhere.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from maxplus import (
    MaxPlusMatrix,
    build_csr,
    crit_row_col_profile,
    critical_graph,
    csr_at,
    dm_bound,
    generate_dm,
    generate_wielandt,
    mat_mul,
    mat_oplus,
    max_cycle_mean,
    scalar_power,
    scalar_times,
    strictly_dominated_by,
    twice_optimal_walk,
    verify_crit_rc_dm,
    verify_crit_rc_wielandt,
    verify_dm,
    visualize,
    weak_threshold_T1,
    wielandt_bound,
    wielandt_skeleton,
)
from maxplus.csr import _boolean_index
from conftest import (
    normalized,
    random_cyclic_matrix,
    random_matrix,
    random_strictly_below,
)
from oracles import csr_walk_oracle

COPRIME_PAIRS = [(g, n) for n in range(3, 9) for g in range(2, n) if gcd(g, n) == 1]
DM_SEEDS = range(5)


def report(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


@pytest.fixture(scope="module")
def dm_corpus():
    return {
        (g, n, seed): generate_dm(n, g, seed=seed)
        for (g, n) in COPRIME_PAIRS
        for seed in DM_SEEDS
    }


@pytest.fixture(scope="module")
def wielandt_corpus():
    return {
        (n, case): generate_wielandt(n, seed=0, case=case)
        for n in range(2, 9)
        for case in ("n-1", "n")
    }


def test_criterion_01_wielandt_boolean_attainment():
    start = time.monotonic()
    for n in range(3, 9):
        assert weak_threshold_T1(wielandt_skeleton(n)).t1 == (n - 1) ** 2 + 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"Boolean Wielandt skeletons give T1 = (n-1)^2+1 for n=3..8 in {elapsed:.2f}s")


def test_criterion_02_two_by_two_characterization():
    checked = 0
    for a00 in range(-3, 1):
        for a11 in range(-3, 1):
            if Fraction(a00 + a11, 2) >= 0:
                continue
            a = MaxPlusMatrix([[a00, 0], [0, a11]])
            expected = 2 if a00 != a11 else 1
            assert weak_threshold_T1(a).t1 == expected
            checked += 1
    assert checked == 15
    report(2, f"2x2 sweep ({checked} cases): T1 = 2 exactly when the loops differ")


def test_criterion_03_dm_attainment_roundtrip(dm_corpus):
    for (g, n, seed), a in dm_corpus.items():
        assert verify_dm(a).holds, (g, n, seed)
        assert weak_threshold_T1(a).t1 == g * (n - 2) + n, (g, n, seed)
    report(3, f"{len(dm_corpus)} generated instances verify and hit T1 = g(n-2)+n")


def test_criterion_04_upper_bound_on_randoms():
    rng = random.Random(40)
    for trial in range(500):
        n = rng.randint(2, 8)
        a = random_matrix(rng, n, density=rng.choice((0.3, 0.5, 0.8)))
        t1 = weak_threshold_T1(a).t1
        assert t1 <= wielandt_bound(n), trial
        if not max_cycle_mean(a).is_bottom:
            g = critical_graph(a).girth
            assert t1 <= dm_bound(g, n), trial
    report(4, "500 random matrices: T1 never exceeds min(Wi(n), DM(g,n))")


def test_criterion_05_csr_walk_oracle_equivalence():
    rng = random.Random(50)
    for _ in range(100):
        n = rng.randint(2, 6)
        a = normalized(random_cyclic_matrix(rng, n, density=rng.choice((0.4, 0.6))))
        crit = critical_graph(a)
        triple = build_csr(a)
        gamma = triple.gamma
        horizon = gamma * n + n
        tables = {
            r: csr_walk_oracle(a, crit.nodes, gamma, r if r else gamma, horizon)
            for r in range(gamma)
        }
        for t in range(1, 41):
            assert csr_at(triple, t).raw() == tables[t % gamma]
    report(5, "100 normalized matrices, t = 1..40: CSR entries equal the walk oracle")


def test_criterion_06_csr_algebra():
    rng = random.Random(60)

    def direct(triple, t):
        st = triple.s
        for _ in range(t - 1):
            st = mat_mul(st, triple.s)
        return mat_mul(mat_mul(triple.c, st), triple.r)

    for _ in range(200):
        a = random_cyclic_matrix(rng, rng.randint(2, 5))
        triple = build_csr(a)
        gamma = triple.gamma
        shift = scalar_power(triple.lam, gamma)
        t = rng.randint(1, 6)
        assert direct(triple, t + gamma) == scalar_times(shift, direct(triple, t))

    for _ in range(200):
        a = normalized(random_cyclic_matrix(rng, rng.randint(2, 5)))
        triple = build_csr(a)
        t1, t2 = rng.randint(1, 5), rng.randint(1, 5)
        assert mat_mul(csr_at(triple, t1), csr_at(triple, t2)) == csr_at(triple, t1 + t2)

    for _ in range(200):
        a = random_cyclic_matrix(rng, rng.randint(2, 5))
        triple = build_csr(a)
        t = rng.randint(1, 6)
        cs, nxt = csr_at(triple, t), csr_at(triple, t + 1)
        assert mat_mul(a, cs) == nxt and mat_mul(cs, a) == nxt
    report(6, "periodicity, group law, and shift law hold on 200 instances each")


def test_criterion_07_perturbation_invariance():
    rng = random.Random(70)
    for _ in range(200):
        a1 = random_cyclic_matrix(rng, rng.randint(2, 6))
        csr1 = build_csr(a1)
        a2 = random_strictly_below(rng, csr_at(csr1, 1), prob=rng.choice((0.3, 0.6)))
        assert strictly_dominated_by(a2, csr_at(csr1, 1))
        a = mat_oplus(a1, a2)
        assert max_cycle_mean(a) == max_cycle_mean(a1)
        assert critical_graph(a).arcs == critical_graph(a1).arcs
        merged = build_csr(a)
        for t in range(1, csr1.gamma + 1):
            assert csr_at(merged, t) == csr_at(csr1, t)
        assert weak_threshold_T1(a).t1 == weak_threshold_T1(a1).t1
    report(7, "200 perturbed pairs: lambda, critical arcs, CSR terms and T1 unchanged")


def test_criterion_08_critical_row_column_attainment(dm_corpus, wielandt_corpus):
    for (g, n, seed), a in dm_corpus.items():
        assert crit_row_col_profile(a)[0] == dm_bound(g, n), (g, n, seed)
        assert _boolean_index(critical_graph(a)) == dm_bound(g, n), (g, n, seed)
        assert verify_crit_rc_dm(a), (g, n, seed)
    for (n, case), a in wielandt_corpus.items():
        assert verify_crit_rc_wielandt(a), (n, case)
        assert crit_row_col_profile(a)[0] == wielandt_bound(n), (n, case)
    report(8, "critical rows/columns attain DM on DM instances and Wi on Wielandt instances")


def test_criterion_09_interesting_walk_structure(dm_corpus, wielandt_corpus):
    for (g, n, seed), a in dm_corpus.items():
        if n > 7 or seed > 0:
            continue
        walk = twice_optimal_walk(a, g, n - 1, dm_bound(g, n) - 1)
        assert walk is not None and walk.interesting
        assert walk.nodes == tuple(range(g, n)) + tuple(range(n)) * g
    for n in range(2, 8):
        a = wielandt_corpus.get((n, "n")) or generate_wielandt(n, seed=0, case="n")
        walk = twice_optimal_walk(a, n - 1, n - 1, wielandt_bound(n) - 1)
        assert walk is not None
        assert walk.nodes == (n - 1,) + tuple(range(n - 1)) * (n - 1) + tuple(range(n))
        assert walk.length == wielandt_bound(n) + n - 1
    report(9, "twice-optimal walks on extremal instances match the canonical form")


def test_criterion_10_strict_visualization():
    rng = random.Random(100)
    for _ in range(200):
        a = random_cyclic_matrix(rng, rng.randint(2, 6), density=rng.choice((0.4, 0.7)))
        lam = max_cycle_mean(a)
        crit = critical_graph(a)
        _, b = visualize(a)
        for i, j, w in b.entries():
            if (i, j) in crit.arcs:
                assert w == lam
            else:
                assert w < lam
    report(10, "200 scalings: entries peak at lambda exactly on critical arcs")
