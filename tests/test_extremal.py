import hashlib
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from maxplus import (
    MaxPlusMatrix,
    MaxPlusScalar,
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
    scalar_times,
    strictly_dominated_by,
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
from maxplus import digraph, extremal, spectral
from maxplus.extremal import SEARCH_LIMIT, a1_pattern, b1_pattern
from conftest import rand_weight, random_cyclic_matrix, random_matrix, random_reducible
from oracles import (
    crit_rc_wielandt_brute,
    heaviest_cycle_exhaustive,
    residue_chords_brute,
    sample_remainder_fractions,
    spectrum_differences,
    twice_optimal_walk_relaxed,
    twice_optimal_walks_brute,
    unweighted_disagreements,
)

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
        hams = hamiltonian_cycles(a)
        weights = []
        for cyc in hams:
            raw = a.raw()
            weights.append(sum(raw[cyc[k]][cyc[(k + 1) % n]] for k in range(n)))
        top = max(weights)
        assert weights.count(top) == 1


def _ranking_matrices():
    """Random matrices, n 2..7, denominators 1/2/3/5, a third with 0/1 weights,
    plus scrambled generated instances whose searches succeed."""
    rng = random.Random(4099)
    out = []
    for _ in range(360):
        n, den, tied = rng.randint(2, 7), rng.choice((1, 2, 3, 5)), rng.random() < 0.35
        density = rng.choice((0.6, 0.8, 1.0))
        out.append(MaxPlusMatrix([
            [
                (Fraction(rng.randint(0, 1)) if tied else Fraction(rng.randint(-6 * den, 6 * den), den))
                if rng.random() < density else None
                for _ in range(n)
            ]
            for _ in range(n)
        ]))
    for n in range(3, 8):
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(apply_numbering(generate_wielandt(n, seed=n, case=("n", "n-1")[n % 2]), tuple(perm)))
        out.append(apply_numbering(generate_dm(n, n - 1, seed=n), tuple(perm)))
    return out


def _verdict_or_error(verify, a):
    try:
        v = verify(a)
    except ValueError as exc:
        return str(exc)
    conditions = {key: (c.passed, c.vacuous, c.detail) for key, c in v.conditions.items()}
    return v.holds, v.numbering, getattr(v, "case", None), conditions


def test_integer_cycle_ranking_matches_the_fraction_oracle(monkeypatch):
    # The pruned search ranks cycles on the spectrum's scaled int rows; the
    # same verdicts with every k-cycle of the support ranked by exact
    # Fraction weight (oracles.unique_max_weight_brute) must agree field by field.
    matrices = _ranking_matrices()
    verdicts = [(_verdict_or_error(verify_dm, a), _verdict_or_error(verify_wielandt, a)) for a in matrices]
    branches = Counter()

    def ranked_by_oracle(a, k, key, conditions):
        cycle, passed, detail, top = heaviest_cycle_exhaustive(a, k)
        branches["unique" if passed else "not unique"] += top is not None
        conditions[key] = extremal.ConditionCheck(passed, detail=detail)
        return cycle

    monkeypatch.setattr(extremal, "_heaviest_cycle", ranked_by_oracle)
    for a, expected in zip(matrices, verdicts):
        assert (_verdict_or_error(verify_dm, a), _verdict_or_error(verify_wielandt, a)) == expected
    assert branches["unique"] >= 20 and branches["not unique"] >= 20, branches
    assert sum(dm[0] is True or wiel[0] is True for dm, wiel in verdicts) >= 10


def _search_matrices():
    """Matrices with a cycle, n 2..8: one weight on every arc (every cycle
    critical), {0, 1} weights with many ties and rational weights, at
    mixed densities, then generated DM and Wielandt instances and copies
    with one to three entries overwritten, all renumbered at random."""
    rng = random.Random(8191)
    out = []
    while len(out) < 360:
        n = rng.randint(2, 8)
        density = rng.choice((0.4, 0.6, 0.8) if n < 7 else (0.3, 0.45))
        kind, c = rng.choice(("constant", "tied", "rational", "rational")), Fraction(rng.randint(-3, 3))
        weight = {
            "constant": lambda: c,
            "tied": lambda: Fraction(rng.randint(0, 1)),
            "rational": lambda: Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3))),
        }[kind]
        a = MaxPlusMatrix([[weight() if rng.random() < density else None for _ in range(n)] for _ in range(n)])
        if not max_cycle_mean(a).is_bottom:
            out.append(a)
    for n in range(3, 9):
        for seed in range(3):
            generated = [generate_wielandt(n, seed, case=case) for case in ("n-1", "n")]
            generated += [generate_dm(n, g, seed) for g in range(2, n) if gcd(g, n) == 1]
            for a in generated:
                out.append(_renumbered(rng, a)[0])
                out.append(_renumbered(rng, _overwritten(rng, a, rng.randint(1, 3)))[0])
    return out


def test_heaviest_cycle_matches_the_full_support_search():
    # the pruned search against ranking all k-cycles of the whole support
    # by exact weight, answer and recorded verdict; its winners weigh k
    # lambda exactly when they are the critical graph's k-cycles
    answered, matrices = Counter(), _search_matrices()
    assert len(matrices) >= 500
    for a in matrices:
        lam = max_cycle_mean(a).value
        for k in (a.n, a.n - 1):
            conditions = {}
            best = extremal._heaviest_cycle(a, k, "ranking", conditions)
            cycle, passed, detail, top = heaviest_cycle_exhaustive(a, k)
            check = conditions["ranking"]
            assert (best, check.passed, check.detail) == (cycle, passed, detail), (k, render_matrix(a))
            by_crit = top == k * lam
            answered["critical graph" if by_crit else "whole support"] += 1
            answered["critical graph, tied"] += by_crit and not passed
    assert answered["critical graph"] >= 50 and answered["whole support"] >= 50, answered
    assert answered["critical graph, tied"] >= 20, answered


def _calls(fn, *args):
    """fn(*args), and the calls made meanwhile, counted by (file name,
    function name) with a profiler: a recursive DFS is called once for
    each path it visits, so its count is machine-independent."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[os.path.basename(frame.f_code.co_filename), frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(None)


def test_the_pruned_search_visits_fewer_paths_than_listing_every_cycle():
    # the numbering searches of every case-n Wielandt instance (k = n and
    # n - 1) and of every DM instance with g < n - 1 (k = n), n = 7..10,
    # renumbered at random: the pruned DFS against digraph._cycles over the
    # support, the listing that ranking every k-cycle walks
    rng = random.Random(7919)
    checked = 0
    for n in range(7, 11):
        generated = [(generate_wielandt(n, seed, case="n"), (n, n - 1)) for seed in range(2)]
        generated += [(generate_dm(n, g, seed), (n,)) for g in range(2, n - 1) if gcd(g, n) == 1 for seed in range(2)]
        for a, lengths in generated:
            a = _renumbered(rng, a)[0]
            support = [[j for j, x in enumerate(row) if x is not None] for row in a.raw()]
            max_cycle_mean(a)  # the spectrum is computed before the count
            pruned = listed = 0
            for k in lengths:
                best, calls = _calls(extremal._heaviest_cycle, a, k, "ranking", {})
                pruned += calls["extremal.py", "extend"]
                cycles, calls = _calls(digraph._cycles, support, k)
                listed += calls["digraph.py", "dfs"]
                assert best is None or best in cycles
            assert 0 < pruned < listed, (n, lengths, pruned, listed)
            checked += 1
    assert checked == 2 * (4 + 12)


def test_the_pruned_search_keeps_every_tie():
    # constant weights off the diagonal tie every cycle, critical ones; a
    # heavier loop at node 0 leaves them tied below lambda
    for n in range(3, 8):
        for c in (Fraction(-2), Fraction(0), Fraction(5, 3)):
            for loop in (None, c + 1):
                a = MaxPlusMatrix([[(loop if i == 0 else None) if i == j else c for j in range(n)] for i in range(n)])
                for k, what in ((n, "Hamiltonian cycle"), (n - 1, f"{n - 1}-cycle")):
                    conditions = {}
                    assert extremal._heaviest_cycle(a, k, "ranking", conditions) is None
                    assert conditions["ranking"].detail == f"maximum-weight {what} is not unique"
                verdict = verify_wielandt(a)
                assert verdict.numbering is None
                assert verdict.conditions["unique_max_weight_hamiltonian"].detail == (
                    "maximum-weight Hamiltonian cycle is not unique"
                )


def test_the_search_stops_at_a_tie_at_lambda():
    # constant weights off the diagonal: every cycle is critical, so the
    # second cycle found ties the first at weight 0 in P and the search
    # stops there, with the verdict of ranking every cycle
    for n in range(3, SEARCH_LIMIT + 1):
        for c in (Fraction(-2), Fraction(0), Fraction(5, 3)):
            a = MaxPlusMatrix([[None if i == j else c for j in range(n)] for i in range(n)])
            max_cycle_mean(a)  # the spectrum is computed before the count
            for k, what in ((n, "Hamiltonian cycle"), (n - 1, f"{n - 1}-cycle")):
                conditions = {}
                best, calls = _calls(extremal._heaviest_cycle, a, k, "ranking", conditions)
                assert best is None and conditions["ranking"].detail == f"maximum-weight {what} is not unique"
                assert calls["extremal.py", "extend"] <= 3 * n, (n, k, calls["extremal.py", "extend"])
            verdict = verify_wielandt(a)
            assert verdict.numbering is None
            assert verdict.conditions["unique_max_weight_hamiltonian"].detail == (
                "maximum-weight Hamiltonian cycle is not unique"
            )


def test_integer_remainder_test_matches_the_fraction_comparison():
    # a2 < CSR(a1) at t = 1, decided on the triple's int residue, against
    # the comparison with CSR(a1) at t = 1 built as Fractions; a2's entries
    # have denominators 7, 11 or 13, which divide no triple's d here
    rng = random.Random(31)
    seen = Counter()
    for _ in range(600):
        n, kind = rng.randint(1, 6), rng.choice(("random", "acyclic", "reducible", "rational mean"))
        if kind == "acyclic":
            a1 = MaxPlusMatrix([[rand_weight(rng) if i < j and rng.random() < 0.6 else None for j in range(n)] for i in range(n)])
        elif kind == "reducible":
            a1 = random_reducible(rng, n)
        elif kind == "rational mean":  # a Hamiltonian cycle of weight 1, lambda = 1/n, beside lighter arcs
            rows = [[rand_weight(rng, -9, -3) if rng.random() < 0.4 else None for _ in range(n)] for _ in range(n)]
            weights = [rand_weight(rng) for _ in range(n - 1)]
            for i, w in enumerate(weights + [1 - sum(weights)]):
                rows[i][(i + 1) % n] = w
            a1 = MaxPlusMatrix(rows)
        else:
            a1 = random_matrix(rng, n, 0.6)
        ceiling = csr_at(build_csr(MaxPlusMatrix(a1.raw())), 1).raw()
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if ceiling[i][j] is not None and rng.random() < 0.6:
                    rows[i][j] = ceiling[i][j] - Fraction(rng.randint(1, 30), rng.choice((7, 11, 13)))
        broken = rng.choice(("none", "equal", "above", "off the support"))
        i, j = rng.randrange(n), rng.randrange(n)
        if broken == "off the support":
            rows[i][j] = None if ceiling[i][j] is not None else Fraction(rng.randint(-50, 50), 11)
        elif broken != "none" and ceiling[i][j] is not None:
            rows[i][j] = ceiling[i][j] + (0 if broken == "equal" else Fraction(1, 13))
        a2 = MaxPlusMatrix(rows)
        expected = strictly_dominated_by(a2, MaxPlusMatrix(ceiling))
        assert extremal._remainder_below_csr(a1, a2) == expected, (kind, render_matrix(a1), render_matrix(a2))
        seen[(kind, expected)] += 1
        seen[broken] += not expected
        seen["non-integer lambda"] += max_cycle_mean(a1).value is not None and max_cycle_mean(a1).value.denominator > 1
    assert all(seen[(kind, True)] >= 20 for kind in ("random", "acyclic", "reducible", "rational mean")), seen
    assert all(seen[(kind, False)] >= 20 for kind in ("random", "acyclic", "reducible", "rational mean")), seen
    assert all(seen[broken] >= 20 for broken in ("equal", "above", "off the support")), seen
    assert seen["non-integer lambda"] >= 100, seen


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


def test_the_chord_power_check_reads_what_mat_power_and_csr_at_give():
    # the check reads (b1^t)[g, n-1] off the integer power of b1 and
    # CSR(a1)[g, n-1] off the skeleton's integer residue; an acyclic a1
    # reads -inf, as csr_at gives it, and the detail prints both entries
    # as the Fraction matrices would
    rng = random.Random(1919)
    seen = Counter()
    while min(seen["acyclic a1"], seen["cyclic a1"]) < 30:
        n = rng.randint(4, 8)
        entries = {(i, j): rand_weight(rng) for i in range(n) for j in range(n) if i != j and rng.random() < 0.45}
        a = from_entries(n, entries)
        if max_cycle_mean(a).is_bottom or 2 * critical_graph(a).girth > n:
            continue
        g, numbering = critical_graph(a).girth, tuple(rng.sample(range(n), n))
        dec, t = decompose(a, g, numbering), dm_bound(g, n) - 1
        lhs, rhs = mat_power(dec.b1, t)[g, n - 1], csr_at(build_csr(dec.a1), t)[g, n - 1]
        check = verify_dm(a, numbering).conditions["chord_power_below_csr"]
        assert check == extremal.ConditionCheck(lhs < rhs, detail=f"{lhs} vs {rhs}")
        seen["acyclic a1" if max_cycle_mean(dec.a1).is_bottom else "cyclic a1"] += 1
        seen["holds"] += check.passed


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


def _planted_chord_case(rng):
    """(a, g, numbering): a matrix whose only critical cycle is a planted
    g-cycle on positions 0..g-1 of a random numbering, shifted by a random
    cycle mean, with random and sometimes missing path arcs and chords."""
    n = rng.randint(3, 9)
    g = rng.randint(2, n) if rng.random() < 0.2 else rng.randint(2, max(2, n // 2 - 1))  # chords need n >= 2g + 2
    sigma = rng.sample(range(n), n)
    den = rng.choice((1, 2, 3))
    negative = lambda lo: Fraction(-rng.randint(1, lo * den), den)  # noqa: E731
    raw = [[negative(8) if rng.random() < 0.4 else None for _ in range(n)] for _ in range(n)]
    for p in range(g, n - 1):  # Hamiltonian arcs past the cycle, at times missing
        raw[sigma[p]][sigma[p + 1]] = None if rng.random() < 0.1 else negative(3)
    for p in range(g):  # the critical g-cycle, weight 0 before the shift
        raw[sigma[p]][sigma[(p + 1) % g]] = Fraction(0)
    shift = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7)))
    a = MaxPlusMatrix([[None if x is None else x + shift for x in row] for row in raw])
    numbering = tuple(sigma) if rng.random() < 0.8 else tuple(rng.sample(range(n), n))
    return a, g, numbering


def test_residue_chords_match_the_power_oracle():
    # verify_dm reads the chord condition off the spectrum's rows by path
    # sums; the oracle compares with the powers of a1, as stated
    rng = random.Random(11)
    kinds = Counter()
    for _ in range(400):
        a, g, numbering = _planted_chord_case(rng)
        assert critical_graph(a).girth == g
        check = verify_dm(a, numbering=numbering).conditions["residue_chords_below_paths"]
        expected = residue_chords_brute(a, g, numbering)
        assert (check.passed, check.vacuous, check.detail) == expected, (render_matrix(a), numbering)
        kinds["vacuous" if check.vacuous else "passed" if check.passed else "failed"] += 1
        raw = a.raw()
        if not check.vacuous and any(raw[numbering[p]][numbering[p + 1]] is None for p in range(g, a.n - 1)):
            kinds["missing path arc"] += 1
    assert min(kinds.values()) >= 20, kinds


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


def test_crit_rc_wielandt_tests_no_remainder_off_the_critical_graph(monkeypatch):
    # a2 < CSR(a1) forces crit(a) = crit(a1), within the skeleton's arcs:
    # a DM instance's critical graph, its n + 1 skeleton arcs, has one
    # Hamiltonian cycle, and only a rotation that puts its chord (g-1, 0)
    # on the skeleton's chord, which needs g = n - 1, gets a remainder test
    real, tests = extremal._remainder_below_csr, Counter()

    def counted(a1, a2):
        tests["remainder"] += 1
        return real(a1, a2)

    monkeypatch.setattr(extremal, "_remainder_below_csr", counted)
    rng = random.Random(23)
    supported = 0
    for g, n in COPRIME_PAIRS:
        for seed in range(2):
            a, numbering = _renumbered(rng, generate_dm(n, g, seed))
            crit = critical_graph(a)
            hams = extremal._critical_cycles_of_length(a, crit, n)
            assert len(crit.arcs) == n + 1 and len(hams) == 1
            for explicit in (None, numbering):
                tests.clear()
                assert verify_crit_rc_wielandt(a, explicit) == crit_rc_wielandt_brute(a, explicit) == (g == n - 1)
                assert tests["remainder"] == (g == n - 1), (g, n, seed, explicit)
            # rotations with the skeleton's support, which the search would test without the filter
            supported += sum(
                all(apply_numbering(a, ham[k:] + ham[:k]).raw()[i][j] is not None for i, j in a1_pattern(n, n - 1))
                for ham in hams
                for k in range(n)
            )
    assert supported >= 3 * len(COPRIME_PAIRS), supported


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


def generated_instances(max_n=12, seeds=range(3)):
    """(family, n, g or case, seed, matrix) for every generate_dm (coprime
    g) and generate_wielandt (both cases) output, n <= max_n."""
    out = []
    for seed in seeds:
        for n in range(2, max_n + 1):
            out += [("dm", n, g, seed, generate_dm(n, g, seed)) for g in range(2, n) if gcd(g, n) == 1]
            out += [("wielandt", n, case, seed, generate_wielandt(n, seed, case=case)) for case in ("n-1", "n")]
    return out


def test_generators_draw_the_same_matrices_for_the_same_seed():
    # one sha256 over the text of every generated matrix, n <= 12, seeds
    # 0-2, recorded when the remainder was drawn by its Fraction formula:
    # a draw of the generator's random stream moved, added or dropped
    # changes it
    digest = hashlib.sha256()
    for *_, a in generated_instances():
        digest.update(render_matrix(a).encode())
    assert digest.hexdigest() == "72150077912604c34d0b3b33ec64a125a0be88481b9e35b167d1fdac73f45efe"


def test_the_integer_remainder_draw_matches_the_fraction_formula():
    # _sample_remainder reads the int residue and builds one Fraction per
    # entry; the Fraction formula must give the same entries and leave the
    # random stream in the same state.  Triples: every generator skeleton
    # (lambda = 0) and the rescaled triple its candidate inherits, n <= 12;
    # skeletons shifted by a non-integer lambda; random matrices, whose
    # critical graphs have cyclicity > 1 too; acyclic ones, where only the
    # positions are drawn
    rng = random.Random(31)
    triples, seen = [], Counter()
    for family, n, param, seed, a in generated_instances():
        g = param if family == "dm" else n - 1
        taken = a1_pattern(n, g) | (b1_pattern(n, g) if family == "dm" else set())
        a1 = decompose(a, g, tuple(range(n))).a1
        triples += [(build_csr(a1), taken), (build_csr(a), taken)]
        seen["rescaled"] += build_csr(a)._d != build_csr(a1)._d
        shifted = scalar_times(MaxPlusScalar(Fraction(rng.randint(-9, 9), rng.choice((2, 3, 7)))), a1)
        triples.append((build_csr(shifted), taken))
    for _ in range(120):
        n = rng.randint(1, 7)
        a = random_cyclic_matrix(rng, n, rng.random())
        triples.append((build_csr(a), {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.3}))
    for _ in range(20):
        n = rng.randint(1, 7)
        a = from_entries(n, {(i, j): rand_weight(rng) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6})
        triples.append((build_csr(a), set()))
    drawn = 0
    for k, (triple, taken) in enumerate(triples):
        mine, theirs = random.Random(k), random.Random(k)
        entries = extremal._sample_remainder(mine, triple, taken)
        assert entries == sample_remainder_fractions(theirs, triple, taken), k
        assert mine.getstate() == theirs.getstate(), k
        drawn += len(entries)
        if triple.crit is None:
            seen["acyclic"] += 1
        else:
            seen["shift"] += triple.lam.value != 0
            seen["gamma > 1"] += triple.gamma > 1
    assert len(triples) >= 300 and drawn >= 1000
    assert min(seen[key] for key in ("rescaled", "acyclic", "shift", "gamma > 1")) >= 20, seen


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


def test_generated_critical_arcs_are_the_skeletons_critical_cycles():
    # The generators' proof: lambda = 0 and the critical arcs are exactly the
    # tight skeleton arcs, every other arc lying strictly below tight.
    for n in range(2, 13):
        for seed in range(5):
            for g in range(2, n):
                if gcd(g, n) == 1:
                    a = generate_dm(n, g, seed)
                    assert max_cycle_mean(a).value == 0
                    assert critical_graph(a).arcs == a1_pattern(n, g), (n, g, seed)
            for case, tight in (("n-1", a1_pattern(n, n - 1)), ("n", set(extremal._cycle_arcs(n)))):
                a = generate_wielandt(n, seed, case=case)
                assert max_cycle_mean(a).value == 0
                assert critical_graph(a).arcs == tight, (n, case, seed)


def test_generators_verify_one_candidate_and_power_the_chord_layer_once(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(extremal, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(extremal, name, wrapper)

    # the verdict runs on the private path that reuses the skeleton's
    # triple, and takes row g of b1's power once, stepping that row alone:
    # no power of the whole of b1
    names = ("_int_mul", "verify_dm", "_dm_verdict", "verify_wielandt", "_wielandt_verdict", "_t1_at_ceiling")
    for name in (*names, "_inherit_skeleton"):
        counted(name)
    left_rows = []
    int_mul = extremal._int_mul
    monkeypatch.setattr(extremal, "_int_mul", lambda arows, b: left_rows.append(len(arows)) or int_mul(arows, b))
    assert "_int_power" not in vars(extremal)
    for seed in range(3):
        calls.clear(), left_rows.clear()
        generate_dm(7, 3, seed)  # n >= 2g: the verdict steps row g of b1 to DM(3, 7) - 1 = 21
        assert calls == Counter(_int_mul=20, _dm_verdict=1, _t1_at_ceiling=1, _inherit_skeleton=1)
        assert left_rows == [1] * 20
        for case in ("n-1", "n"):
            calls.clear()
            generate_wielandt(7, seed, case=case)
            assert calls == Counter(_wielandt_verdict=1, _t1_at_ceiling=1, _inherit_skeleton=1)


def test_the_verdicts_take_a_skeleton_only_if_it_is_the_layer_they_carve():
    # a generator hands the verdict its skeleton a1, which already holds
    # a1's triple; the verdict checks it entry for entry against its own
    # layer, and gives what the public verdict gives
    cases = [
        (generate_dm(n, g, seed), g, extremal._dm_verdict, extremal.verify_dm)
        for n, g in ((5, 2), (7, 3), (8, 3))
        for seed in range(2)
    ] + [
        (generate_wielandt(n, seed, case=case), n - 1, extremal._wielandt_verdict, extremal.verify_wielandt)
        for n in (2, 5, 7)
        for case in ("n-1", "n")
        for seed in range(2)
    ]
    for a, g, private, public in cases:
        identity = tuple(range(a.n))
        a1 = decompose(a, g, identity).a1
        assert private(a, identity, a1) == public(a, identity)
        raw = [row[:] for row in a1.raw()]
        raw[a.n - 1][0] -= 1  # the Hamiltonian arc closing the skeleton
        with pytest.raises(AssertionError, match="not the layer it carves"):
            private(a, identity, MaxPlusMatrix(raw))


def _reweighted(rng, a):
    """a_ij - d_i + d_j + c for random d and c: a diagonal similarity and a
    scalar shift, which keep the critical graph and every verdict."""
    d = [Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(a.n)]
    c = Fraction(rng.randint(-9, 9), rng.choice((1, 3)))
    return MaxPlusMatrix(
        [[None if x is None else x - d[i] + d[j] + c for j, x in enumerate(row)] for i, row in enumerate(a.raw())]
    )


def _skeleton_inputs():
    """(matrix, numbering) pairs: generated DM and Wielandt instances with
    n <= 10, reweighted, and copies with one to three entries overwritten,
    all renumbered, with the numbering that undoes it; then random cyclic
    matrices, n 2..7, with random numberings."""
    rng = random.Random(1920)
    out = []
    for n in range(2, 11):
        generated = [generate_dm(n, g, seed) for g in range(2, n) if gcd(g, n) == 1 for seed in range(2)]
        generated += [generate_wielandt(n, seed, case=case) for case in ("n-1", "n") for seed in range(2)]
        for a in generated:
            out.append(_renumbered(rng, _reweighted(rng, a)))
            out.append(_renumbered(rng, _overwritten(rng, a, rng.randint(1, 3))))
    for _ in range(150):
        n = rng.randint(2, 7)
        a = random_cyclic_matrix(rng, n, density=rng.choice((0.3, 0.5, 0.8)))
        out.append((a, tuple(rng.sample(range(n), n))))
    return out


def _verdicts(a, numbering):
    """Every verdict on a, under numbering and searched for (n <= 8), or
    the ValueError a verifier raises."""

    def outcome(verify, *args):
        try:
            return verify(MaxPlusMatrix(a.raw()), *args)
        except ValueError as exc:
            return str(exc)

    arg_lists = [(numbering,), ()] if a.n <= 8 else [(numbering,)]
    return [outcome(verify, *args) for verify in (verify_dm, verify_wielandt, verify_crit_rc_wielandt) for args in arg_lists]


def test_a_carved_skeleton_takes_the_inputs_lambda_and_critical_graph(monkeypatch):
    # the skeleton a1 a verifier carves takes lambda(a) and crit(a) exactly
    # when every critical arc of a lies on its support, and a's closure,
    # relabeled, with no closure of its own, exactly when crit(a) is also
    # one component on every node; what it stores then equals its own
    # spectrum, and the verdicts are those it gives when every a1
    # computes its own.  crit is crit(a) relabeled by the numbering
    real, kinds, closures, closure = extremal._inherit_input, Counter(), Counter(), spectral._int_closure
    monkeypatch.setattr(spectral, "_int_closure", lambda rows: closures.update(["closed"]) or closure(rows))

    def checked(a1, sp, numbering, crit):
        fresh = a1._spectrum is None
        closures.clear()
        out = real(a1, sp, numbering, crit)
        if fresh:
            if any(a1.raw()[i][j] is None for i, j in crit.arcs):
                assert a1._spectrum is None and not closures
                kinds["refused"] += 1
            else:
                covers = len(crit.nodes) == a1.n and len(crit.scc.components) == 1
                assert closures["closed"] == (not covers)
                assert a1._spectrum is not None and spectrum_differences(a1) == []
                gamma = "gamma 1" if crit.cyclicity == 1 else "gamma > 1"
                kinds[f"closure handed, {gamma}" if covers else "own closure"] += 1
                kinds["not strongly connected"] += not a1._spectrum._strongly_connected
        return out

    inputs = _skeleton_inputs()
    monkeypatch.setattr(extremal, "_inherit_input", checked)
    verdicts = [_verdicts(a, numbering) for a, numbering in inputs]
    monkeypatch.setattr(extremal, "_inherit_input", lambda a1, sp, numbering, crit: a1)
    assert verdicts == [_verdicts(a, numbering) for a, numbering in inputs]
    floors = {"closure handed, gamma 1": 100, "closure handed, gamma > 1": 100, "own closure": 50, "refused": 50}
    assert all(kinds[path] >= floor for path, floor in floors.items()) and kinds["not strongly connected"] >= 10, kinds


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


def test_oracle_weight_is_the_weight_of_its_walk():
    # the DP weighs walks in d(A - lambda); the reported weight adds back
    # length * lambda, which the generated (mean 0) instances cannot show
    rng = random.Random(5)
    found = 0
    for _ in range(150):
        a = random_cyclic_matrix(rng, rng.randint(2, 6), density=0.5)
        i, j, t = rng.randrange(a.n), rng.randrange(a.n), rng.randint(1, 9)
        try:
            walk = twice_optimal_walk(a, i, j, t)
        except ValueError:  # no unique critical g-cycle
            continue
        if walk is None:
            continue
        raw = a.raw()
        assert (walk.nodes[0], walk.nodes[-1], len(walk.nodes)) == (i, j, walk.length + 1)
        assert walk.weight.value == sum(raw[u][v] for u, v in zip(walk.nodes, walk.nodes[1:]))
        assert (walk.length - t) % critical_graph(a).girth == 0
        found += max_cycle_mean(a).value != 0
    assert found >= 30


def test_the_walk_oracle_matches_a_brute_force_dp_up_to_n_4():
    # twice_optimal_walk against oracles.twice_optimal_walks_brute, which
    # takes the critical g-cycle from the elementary cycles and runs past
    # the library's length cap: every (i, j) and t = 1..g, on 1x1 loops,
    # where that cap g*n + n - g - 1 is 0, and random matrices, n = 1..4;
    # where the cycle is not unique both refuse
    rng = random.Random(2727)
    inputs = [MaxPlusMatrix([[x]]) for x in (0, 3, Fraction(-5, 2))]
    inputs += [MaxPlusMatrix([[0] * n for _ in range(n)]) for n in (2, 3, 4)]  # n critical loops
    inputs += [from_entries(4, {(0, 1): 0, (1, 0): 0, (2, 3): 0, (3, 2): 0})]  # two critical 2-cycles
    inputs += [random_cyclic_matrix(rng, rng.randint(1, 4), density=rng.choice((0.3, 0.6))) for _ in range(150)]
    kinds = Counter()
    for a in inputs:
        expected = twice_optimal_walks_brute(a)
        g = critical_graph(a).girth
        for i, j, t in product(range(a.n), range(a.n), range(1, g + 1)):
            try:
                walk = twice_optimal_walk(a, i, j, t)
            except ValueError:  # no unique critical g-cycle
                assert expected is None
                kinds["refused"] += 1
                break
            got = None if walk is None else (walk.weight.value, walk.length)
            assert got == expected.get((i, j, t % g)), (render_matrix(a), i, j, t)
            if walk is not None:
                raw = a.raw()
                assert (walk.nodes[0], walk.nodes[-1], len(walk.nodes)) == (i, j, walk.length + 1)
                assert walk.weight.value == sum(raw[u][v] for u, v in zip(walk.nodes, walk.nodes[1:]))
            kinds["none" if walk is None else f"walk, n = {a.n}" if a.n == 1 else "walk"] += 1
    assert kinds["walk, n = 1"] >= 20 and kinds["walk"] >= 500 and kinds["none"] >= 200 and kinds["refused"] >= 5, kinds


def test_the_walk_dp_on_the_kernel_matches_the_relaxation_it_replaced():
    # twice_optimal_walk steps one dp row per length with _int_mul and
    # reads the walk back, taking the least state that attains each step;
    # oracles.twice_optimal_walk_relaxed is the relaxation with a table of
    # parents that it replaced.  Both give the same WalkResult, nodes
    # included, or the same exception, at every (i, j) with a random t in
    # 0..2g, on random matrices with n = 1..8, a third of them with {0, 1}
    # weights, where many walks tie, and on the generated DM and Wielandt
    # instances up to n = 8
    rng = random.Random(2929)
    inputs = []
    for k in range(330):
        n, density = k % 8 + 1, rng.choice((0.2, 0.35, 0.5))
        if k % 3:
            inputs.append(("weighted", random_matrix(rng, n, density)))
        else:
            rows = [[rng.randint(0, 1) if rng.random() < density else None for _ in range(n)] for _ in range(n)]
            inputs.append(("{0, 1}", MaxPlusMatrix(rows)))
    for g, n in COPRIME_PAIRS:
        inputs.append(("generated", generate_dm(n, g, seed=g)))
    for n in range(2, 9):
        inputs += [("generated", generate_wielandt(n, 0, case=case)) for case in ("n-1", "n")]
    kinds = Counter()
    for kind, a in inputs:
        crit = spectral.spectrum(a).crit
        g = crit.girth if crit else 1
        for i, j in product(range(a.n), range(a.n)):
            t = rng.randint(0, 2 * g)
            outcomes = []
            for walk in (twice_optimal_walk, twice_optimal_walk_relaxed):
                try:
                    outcomes.append(walk(a, i, j, t))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (render_matrix(a), i, j, t)
            found = outcomes[0]
            kinds[f"{kind}, {'refused' if isinstance(found, str) else 'none' if found is None else 'walk'}"] += 1
    assert len(inputs) >= 300 + 30, len(inputs)
    assert kinds["{0, 1}, walk"] >= 500 and kinds["weighted, walk"] >= 2000 and kinds["generated, walk"] >= 800, kinds
    assert min(kinds[f"{kind}, {out}"] for kind in ("{0, 1}", "weighted") for out in ("none", "refused")) >= 300, kinds


def test_unweighted_digraphs_agree_with_their_successor_set_index():
    # every 0/-inf matrix with n <= 3 and every 13th mask at n = 4 (an odd
    # stride: a power of two would leave row 0 empty, and no input strongly
    # connected); on the strongly connected ones analyze's T, T1 and gamma,
    # the crit-rc profile and the four verdicts must follow from the index
    # found by stepping sets of walk ends, nothing taken from the library
    # (see oracles.unweighted_disagreements).  None disagrees, the 1x1
    # loop included: its index is 0 = DM(1, 1), and verify_crit_rc_dm
    # compares max(index, 1) = 1, its crit-rc transient, with the bound
    masks = [(n, mask) for n in (1, 2, 3) for mask in range(1 << n * n)] + [(4, mask) for mask in range(0, 1 << 16, 13)]
    found = {(n, mask): unweighted_disagreements(n, mask) for n, mask in masks}
    strongly_connected = {key: diffs for key, diffs in found.items() if diffs is not None}
    assert len(strongly_connected) == 2126
    assert {key: diffs for key, diffs in strongly_connected.items() if diffs} == {}


def test_the_walk_oracle_takes_int_t_and_endpoints_only():
    # a non-int t matches no walk length modulo g and a bool passes as an
    # int; a float endpoint passes the range check: each is refused up front
    a = generate_dm(5, 2, seed=13)
    assert twice_optimal_walk(a, 2, 4, 1) is not None
    for t in (1.5, 1.0, True, Fraction(1)):
        with pytest.raises(TypeError, match="twice_optimal_walk needs an int t"):
            twice_optimal_walk(a, 2, 4, t)
    for i, j in ((0.0, 4), (2, 4.0), (True, 4), (2, Fraction(4))):
        with pytest.raises(TypeError, match="walk endpoints must be ints"):
            twice_optimal_walk(a, i, j, 1)
