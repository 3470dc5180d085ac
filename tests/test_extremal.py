import random
from fractions import Fraction
from math import gcd

import pytest

from maxplus import (
    MaxPlusMatrix,
    apply_numbering,
    build_csr,
    crit_row_col_profile,
    critical_graph,
    csr_at,
    decompose,
    dm_bound,
    dm_skeleton,
    from_entries,
    generate_dm,
    generate_wielandt,
    hamiltonian_cycles,
    mat_oplus,
    mat_power,
    max_cycle_mean,
    render_matrix,
    transient_T,
    twice_optimal_walk,
    verify_crit_rc_dm,
    verify_crit_rc_wielandt,
    verify_dm,
    verify_wielandt,
    weak_threshold_T1,
    wielandt_bound,
    wielandt_skeleton,
    zeros,
)
from maxplus.digraph import associated_digraph
from maxplus import extremal
from maxplus.extremal import SEARCH_LIMIT, a1_pattern, b1_pattern
from conftest import random_cyclic_matrix
from oracles import crit_rc_wielandt_brute

N = None

COPRIME_PAIRS = [
    (g, n) for n in range(3, 9) for g in range(2, n) if gcd(g, n) == 1
]


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_twelve_node_example():
    # dotted skeleton: Hamiltonian cycle plus the chord (2, 0); thin layer:
    # the residue chords, here including (4, 8), (4, 11), (9, 7), (9, 4)
    n, g = 12, 3
    skeleton = {arc: 0 for arc in a1_pattern(n, g)}
    thin = {(4, 8): 0, (4, 11): 0, (9, 7): 0, (9, 4): 0}
    a = from_entries(n, skeleton | thin)
    dec = decompose(a, g, tuple(range(n)))
    a1_support = {(i, j) for i, j, w in dec.a1.entries() if not w.is_bottom}
    b1_support = {(i, j) for i, j, w in dec.b1.entries() if not w.is_bottom}
    assert a1_support == a1_pattern(n, g)
    consec_overlap = {(i, i + 1) for i in range(g, n - 1)}
    assert b1_support == set(thin) | consec_overlap
    assert dec.a2 == zeros(n)
    assert set(thin) <= b1_pattern(n, g)


def test_decompose_pure_skeleton_support():
    a = dm_skeleton(5, 2)
    dec = decompose(a, 2, tuple(range(5)))
    assert dec.a1 == a
    consec = {(i, i + 1) for i in range(2, 4)}
    assert {(i, j) for i, j, w in dec.b1.entries() if not w.is_bottom} == consec
    assert dec.a2 == zeros(5)


def test_decompose_reassembles_permuted_matrix(rng):
    for _ in range(10):
        a = random_cyclic_matrix(rng, 6)
        numbering = list(range(6))
        rng.shuffle(numbering)
        g = rng.randint(1, 6)
        dec = decompose(a, g, tuple(numbering))
        assert mat_oplus(mat_oplus(dec.a1, dec.b1), dec.a2) == apply_numbering(
            a, tuple(numbering)
        )


def test_decompose_rejects_bad_input(rng):
    a = random_cyclic_matrix(rng, 4)
    with pytest.raises(ValueError):
        decompose(a, 0, (0, 1, 2, 3))
    with pytest.raises(ValueError):
        decompose(a, 2, (0, 1, 2, 2))


# ---------------------------------------------------------------------------
# DM verification


def test_verify_dm_on_generated_instance():
    a = generate_dm(5, 3, seed=0)
    verdict = verify_dm(a)
    assert verdict.holds and verdict.numbering == tuple(range(5))
    assert all(c.passed for c in verdict.conditions.values())
    assert weak_threshold_T1(a).t1 == dm_bound(3, 5) == 14


def _saturate_remainder_entry(a, g, keep_unique_short_cycle=False):
    """Copy of `a` with one off-pattern entry raised to its CSR ceiling.

    Saturation makes the new arc critical, so pick a target that keeps the
    critical girth at g (a loop or short-circuit target would change the
    regime entirely); optionally also keep the critical g-cycle unique so
    the walk oracle stays applicable.
    """
    from maxplus.extremal import _critical_cycles_of_length

    n = a.n
    dec = decompose(a, g, tuple(range(n)))
    ceiling = csr_at(build_csr(dec.a1), 1)
    taken = a1_pattern(n, g) | b1_pattern(n, g)
    for i in range(n):
        for j in range(n):
            if (i, j) in taken or i == j or ceiling[i, j].is_bottom:
                continue
            entries = {(p, q): w.value for p, q, w in a.entries() if not w.is_bottom}
            entries[(i, j)] = ceiling[i, j].value  # equality breaks strictness
            bumped = from_entries(n, entries)
            crit = critical_graph(bumped)
            if crit.girth != g:
                continue
            if keep_unique_short_cycle and len(_critical_cycles_of_length(bumped, crit, g)) != 1:
                continue
            return bumped
    raise AssertionError("no girth-preserving saturation target found")


def test_verify_dm_broken_by_saturated_remainder_entry():
    a = generate_dm(5, 3, seed=1)
    bumped = _saturate_remainder_entry(a, 3)
    verdict = verify_dm(bumped, numbering=tuple(range(5)))
    assert not verdict.holds
    assert not verdict.conditions["remainder_below_csr"].passed
    assert weak_threshold_T1(bumped).t1 < dm_bound(3, 5)


def test_verify_dm_rejects_non_coprime_girth():
    a = dm_skeleton(4, 2)
    verdict = verify_dm(a)
    assert not verdict.holds
    assert not verdict.conditions["coprime"].passed
    assert weak_threshold_T1(a).t1 < dm_bound(2, 4)


def test_verify_dm_rejects_girth_one():
    a = from_entries(2, {(0, 0): 0, (0, 1): -1, (1, 0): -1})
    with pytest.raises(ValueError):
        verify_dm(a)


def test_verify_dm_two_by_two_is_out_of_scope():
    # n = g = 2 attains DM(2, 2) = 2 when the loops differ, but the general
    # condition set rejects it (coprimality); the Wielandt verifier covers it.
    a = MaxPlusMatrix([[-1, 0], [0, -2]])
    verdict = verify_dm(a)
    assert not verdict.holds and not verdict.conditions["coprime"].passed
    assert weak_threshold_T1(a).t1 == dm_bound(2, 2)
    assert verify_wielandt(a).holds


def test_verify_dm_search_matches_any_renumbering(rng):
    for seed, (g, n) in enumerate([(2, 5), (3, 7), (3, 4)]):
        a = generate_dm(n, g, seed=seed)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            scrambled = apply_numbering(a, tuple(perm))
            verdict = verify_dm(scrambled)
            assert verdict.holds
    for _ in range(10):
        b = random_cyclic_matrix(rng, 5)
        if critical_graph(b).girth == 1:
            continue
        perm = list(range(5))
        rng.shuffle(perm)
        assert verify_dm(b).holds == verify_dm(apply_numbering(b, tuple(perm))).holds


def test_verify_dm_search_handles_missing_hamiltonian_cycle():
    a = from_entries(3, {(0, 1): 0, (1, 0): 0, (2, 0): -1})
    verdict = verify_dm(a)
    assert not verdict.holds
    assert not verdict.conditions["unique_max_weight_hamiltonian"].passed


def test_verify_dm_search_limit(monkeypatch):
    a = dm_skeleton(11, 2)
    with pytest.raises(ValueError):
        verify_dm(a)
    monkeypatch.setattr(extremal, "SEARCH_LIMIT", 11)
    assert verify_dm(a).holds  # Boolean skeleton attains DM


def test_unique_max_weight_hamiltonian_on_extremal_instances():
    for g, n in [(2, 5), (3, 5), (3, 8), (5, 7)]:
        a = generate_dm(n, g, seed=7)
        hams = hamiltonian_cycles(associated_digraph(a))
        weights = []
        for cyc in hams:
            raw = a.raw()
            weights.append(sum(raw[cyc[k]][cyc[(k + 1) % n]] for k in range(n)))
        top = max(weights)
        assert weights.count(top) == 1


def test_remark_small_n_regime_reports_vacuous_conditions():
    # n < 2g: the residue-chord layer is a bare path, so both chord
    # conditions hold vacuously and its (n-g)-th power vanishes
    for g, n, seed in [(3, 5, 0), (4, 7, 1), (5, 8, 2)]:
        a = generate_dm(n, g, seed=seed)
        verdict = verify_dm(a)
        assert verdict.holds
        assert verdict.conditions["residue_chords_below_paths"].vacuous
        assert verdict.conditions["chord_power_below_csr"].vacuous
        dec = decompose(a, g, verdict.numbering)
        assert mat_power(dec.b1, n - g) == zeros(n)


def test_dm_attainment_implies_structure(rng):
    # whenever the scan certifies T1 = DM(g, n) with g >= 2, the critical
    # graph is strongly connected with a unique shortest critical cycle
    checked = 0
    for seed in range(200):
        local = random.Random(seed)
        a = random_cyclic_matrix(local, local.randint(3, 5))
        crit = critical_graph(a)
        if crit.girth < 2 or crit.girth == a.n == 2:
            continue  # the 2x2 all-critical case is characterized separately
        if weak_threshold_T1(a).t1 != dm_bound(crit.girth, a.n):
            continue
        verdict = verify_dm(a)
        assert verdict.holds, render_matrix(a)
        assert verdict.conditions["crit_strongly_connected"].passed
        assert verdict.conditions["unique_critical_short_cycle"].passed
        checked += 1
    assert checked >= 3  # the sweep must actually exercise attaining cases


# ---------------------------------------------------------------------------
# Wielandt verification


def test_verify_wielandt_boolean_skeleton():
    # all-zero weights make both skeleton cycles critical; the bound is
    # attained and the girth case is n-1
    a = wielandt_skeleton(6)
    verdict = verify_wielandt(a)
    assert verdict.holds and verdict.case == "n-1"
    assert weak_threshold_T1(a).t1 == wielandt_bound(6) == 26


def test_verify_wielandt_perturbed_skeleton(rng):
    for n in (3, 4, 5):
        for case in ("n-1", "n"):
            a = generate_wielandt(n, seed=5, case=case)
            verdict = verify_wielandt(a)
            assert verdict.holds and verdict.case == case
            assert weak_threshold_T1(a).t1 == wielandt_bound(n)


def test_verify_wielandt_rejects_small_girth():
    a = generate_dm(5, 2, seed=0)  # critical girth 2 <= n-2
    verdict = verify_wielandt(a)
    assert not verdict.holds


def test_verify_wielandt_two_by_two_characterization():
    for a00 in range(-3, 0):
        for a11 in range(-3, 0):
            a = MaxPlusMatrix([[a00, 0], [0, a11]])
            verdict = verify_wielandt(a)
            t1 = weak_threshold_T1(a).t1
            assert verdict.holds == (a00 != a11)
            assert verdict.holds == (t1 == 2)


def test_verify_wielandt_two_by_two_with_critical_loop():
    a = MaxPlusMatrix([[0, 0], [0, -1]])
    verdict = verify_wielandt(a)
    assert verdict.holds and verdict.case == "n-1"
    assert weak_threshold_T1(a).t1 == 2
    b = MaxPlusMatrix([[0, 0], [0, 0]])
    assert not verify_wielandt(b).holds
    assert weak_threshold_T1(b).t1 == 1


def test_verify_dm_explicit_numbering_with_broken_hamiltonian_support():
    entries = {
        (i, j): w.value for i, j, w in generate_dm(5, 2, seed=0).entries() if not w.is_bottom
    }
    del entries[(4, 0)]
    verdict = verify_dm(from_entries(5, entries), numbering=tuple(range(5)))
    assert not verdict.holds
    assert not verdict.conditions["hamiltonian_support"].passed


def test_verify_wielandt_requires_full_skeleton_support():
    entries = {
        (i, j): w.value
        for i, j, w in generate_wielandt(4, seed=0, case="n").entries()
        if not w.is_bottom
    }
    del entries[(2, 0)]  # the chord
    broken = from_entries(4, entries)
    verdict = verify_wielandt(broken, numbering=tuple(range(4)))
    assert not verdict.holds
    assert not verdict.conditions["skeleton_support"].passed
    assert weak_threshold_T1(broken).t1 < wielandt_bound(4)

    # a bare critical Hamiltonian cycle has no (n-1)-cycle anywhere, so no
    # numbering can exhibit the skeleton; its threshold is trivial
    cycle = from_entries(4, {(i, (i + 1) % 4): 0 for i in range(4)})
    assert not verify_wielandt(cycle).holds
    assert weak_threshold_T1(cycle).t1 == 1


def test_verify_wielandt_search_matches_renumbering(rng):
    a = generate_wielandt(5, seed=2, case="n")
    for _ in range(3):
        perm = list(range(5))
        rng.shuffle(perm)
        assert verify_wielandt(apply_numbering(a, tuple(perm))).holds


# ---------------------------------------------------------------------------
# critical row/column verdicts


def test_crit_rc_dm_on_generated_instances():
    for g, n in [(2, 5), (3, 5), (2, 7)]:
        a = generate_dm(n, g, seed=3)
        assert verify_crit_rc_dm(a)
        assert crit_row_col_profile(a)[0] == dm_bound(g, n)


def test_crit_rc_wielandt_shape_without_critical_index():
    # case g = n: the critical graph is a bare Hamiltonian cycle, so the
    # critical-graph index is tiny, yet the rows/columns attain Wi(n)
    a = generate_wielandt(5, seed=6, case="n")
    assert verify_crit_rc_wielandt(a)
    assert not verify_crit_rc_dm(a)
    assert crit_row_col_profile(a)[0] == wielandt_bound(5)
    crit = critical_graph(a)
    assert crit.girth == 5  # just the Hamiltonian cycle


def test_crit_rc_dm_verdict_tracks_transient(rng):
    # the verdict and the directly computed row/column transient agree in
    # both directions on random instances
    negatives = 0
    for _ in range(15):
        a = random_cyclic_matrix(rng, 4)
        crit = critical_graph(a)
        attained = crit_row_col_profile(a)[0] == dm_bound(crit.girth, a.n)
        assert verify_crit_rc_dm(a) == attained
        negatives += not attained
    assert negatives >= 10


def _renumbered(rng, a):
    """A random renumbering of a and the numbering that undoes it."""
    perm = list(range(a.n))
    rng.shuffle(perm)
    inverse = [0] * a.n
    for p, node in enumerate(perm):
        inverse[node] = p
    return apply_numbering(a, tuple(perm)), tuple(inverse)


def _overwritten(rng, a, count):
    """Copy of a with `count` random entries set to random weights in [-3, 3]."""
    rows = [list(row) for row in a.raw()]
    for _ in range(count):
        rows[rng.randrange(a.n)][rng.randrange(a.n)] = Fraction(rng.randint(-6, 6), 2)
    return MaxPlusMatrix(rows)


def test_crit_rc_wielandt_matches_exhaustive_search():
    rng = random.Random(4)
    cases = []  # (matrix, a numbering to check explicitly)
    # ties in small integer and half-integer weights make many critical arcs
    while len(cases) < 120:
        n = rng.randint(2, 6)
        density = rng.uniform(0.3, 1.0)
        den = rng.choice((1, 2))
        rows = [
            [Fraction(rng.randint(-2 * den, 2 * den), den) if rng.random() < density else None for _ in range(n)]
            for _ in range(n)
        ]
        a = MaxPlusMatrix(rows)
        if not max_cycle_mean(a).is_bottom:
            cases.append(_renumbered(rng, a))
    for n in range(2, 8):
        for case in ("n-1", "n"):
            for seed in range(3):
                cases.append(_renumbered(rng, generate_wielandt(n, seed=seed, case=case)))
    for g, n in COPRIME_PAIRS[:10]:
        a = generate_dm(n, g, seed=g + n)
        cases.append(_renumbered(rng, a))
        for count in (1, 2, 3):
            b = _overwritten(rng, a, count)
            cases.append(_renumbered(rng, b))
    positives = 0
    for a, numbering in cases:
        verdict = verify_crit_rc_wielandt(a)
        assert verdict == crit_rc_wielandt_brute(a), render_matrix(a)
        assert verify_crit_rc_wielandt(a, numbering) == crit_rc_wielandt_brute(a, numbering)
        positives += verdict
    assert positives >= 30


def test_crit_rc_wielandt_beyond_exhaustive_sizes():
    rng = random.Random(16)
    for case in ("n-1", "n"):
        a, numbering = _renumbered(rng, generate_wielandt(16, seed=1, case=case))
        assert verify_crit_rc_wielandt(a)
        assert verify_crit_rc_wielandt(a, numbering)


def test_boolean_skeleton_indices_attain_bounds():
    for g, n in [(2, 5), (3, 5), (2, 7), (3, 7)]:
        assert transient_T(dm_skeleton(n, g)) == dm_bound(g, n)
    # the skeleton sought by verify_crit_rc_wielandt has digraph index
    # Wi(n); checked up to the search limit that verify_dm and
    # verify_wielandt keep
    for n in range(2, SEARCH_LIMIT + 1):
        assert transient_T(wielandt_skeleton(n)) == wielandt_bound(n)


# ---------------------------------------------------------------------------
# generators


def test_generator_preconditions():
    with pytest.raises(ValueError):
        generate_dm(4, 2, seed=0)  # not coprime
    with pytest.raises(ValueError):
        generate_dm(4, 4, seed=0)  # g must be < n
    with pytest.raises(ValueError):
        generate_dm(3, 1, seed=0)
    with pytest.raises(ValueError):
        generate_wielandt(1, seed=0)
    with pytest.raises(ValueError):
        generate_wielandt(4, seed=0, case="bogus")


def test_generators_are_deterministic():
    assert generate_dm(5, 2, seed=42) == generate_dm(5, 2, seed=42)
    assert generate_wielandt(4, seed=42, case="n") == generate_wielandt(4, seed=42, case="n")


def test_generated_dm_never_trusted_without_verification():
    for seed in range(3):
        a = generate_dm(7, 2, seed=seed)
        assert verify_dm(a, numbering=tuple(range(7))).holds
        assert weak_threshold_T1(a).t1 == dm_bound(2, 7)


def test_generated_wielandt_both_cases():
    for case in ("n-1", "n"):
        a = generate_wielandt(6, seed=9, case=case)
        assert verify_wielandt(a).case == case
        assert weak_threshold_T1(a).t1 == wielandt_bound(6)


def test_generated_wielandt_two_by_two_reduces_to_distinct_loops():
    for case in ("n-1", "n"):
        a = generate_wielandt(2, seed=3, case=case)
        assert weak_threshold_T1(a).t1 == 2
        assert a[0, 0] != a[1, 1]


# ---------------------------------------------------------------------------
# twice-optimal walk oracle


@pytest.mark.parametrize("g,n", [(2, 5), (3, 5), (2, 7), (3, 7)])
def test_interesting_walk_structure_dm(g, n):
    a = generate_dm(n, g, seed=13)
    walk = twice_optimal_walk(a, g, n - 1, dm_bound(g, n) - 1)
    assert walk is not None and walk.interesting
    expected = tuple(range(g, n)) + tuple(range(n)) * g
    assert walk.nodes == expected
    assert walk.length == dm_bound(g, n) + g - 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_interesting_walk_structure_wielandt_hamiltonian_case(n):
    a = generate_wielandt(n, seed=13, case="n")
    walk = twice_optimal_walk(a, n - 1, n - 1, wielandt_bound(n) - 1)
    assert walk is not None
    expected = (n - 1,) + tuple(range(n - 1)) * (n - 1) + tuple(range(n))
    assert walk.nodes == expected
    assert walk.length == wielandt_bound(n) + n - 1


def test_no_interesting_walk_on_non_extremal_instances():
    a = dm_skeleton(4, 2)  # non-coprime: cannot attain DM(2, 4)
    t = dm_bound(2, 4) - 1
    for i in range(4):
        for j in range(4):
            walk = twice_optimal_walk(a, i, j, t)
            assert walk is None or not walk.interesting

    bumped = _saturate_remainder_entry(
        generate_dm(5, 3, seed=1), 3, keep_unique_short_cycle=True
    )
    assert weak_threshold_T1(bumped).t1 < dm_bound(3, 5)
    t = dm_bound(3, 5) - 1
    for i in range(5):
        for j in range(5):
            walk = twice_optimal_walk(bumped, i, j, t)
            assert walk is None or not walk.interesting


def test_oracle_guards():
    with pytest.raises(ValueError):
        twice_optimal_walk(dm_skeleton(9, 2), 0, 1, 3)
    two_crit_cycles = from_entries(4, {(0, 1): 0, (1, 0): 0, (2, 3): 0, (3, 2): 0})
    with pytest.raises(ValueError):
        twice_optimal_walk(two_crit_cycles, 0, 1, 2)
    with pytest.raises(ValueError):
        twice_optimal_walk(dm_skeleton(5, 2), 0, 1, 0)


def test_oracle_returns_none_when_residue_unreachable():
    # walks between the two nodes of a bare critical 2-cycle have fixed parity
    a = from_entries(2, {(0, 1): 0, (1, 0): 0})
    assert twice_optimal_walk(a, 0, 1, 2) is None
    walk = twice_optimal_walk(a, 0, 1, 1)
    assert walk is not None and walk.nodes == (0, 1)


def test_oracle_weight_matches_power_entry():
    # the twice-optimal walk cannot beat the best same-length walk, and the
    # matrix power at the walk's length must agree with its weight
    a = generate_dm(5, 2, seed=21)
    walk = twice_optimal_walk(a, 2, 4, dm_bound(2, 5) - 1)
    assert mat_power(a, walk.length)[2, 4] == walk.weight
