from fractions import Fraction

import pytest

from maxplus import (
    MaxPlusMatrix,
    analyze,
    as_scalar,
    build_csr,
    crit_row_col_profile,
    critical_components,
    critical_graph,
    csr_at,
    dm_bound,
    from_entries,
    generate_dm,
    mat_mul,
    mat_oplus,
    mat_power,
    max_cycle_mean,
    nachtigall_matrix,
    scalar_power,
    scalar_times,
    spectrum,
    strictly_dominated_by,
    transient_T,
    transpose,
    weak_threshold_T1,
    wielandt_bound,
    wielandt_skeleton,
    zeros,
)
from maxplus import csr
from conftest import (
    normalized,
    random_cyclic_matrix,
    random_irreducible,
    random_strictly_below,
)
from oracles import csr_walk_oracle, walk_power

N = None


def cycle_matrix(n):
    return from_entries(n, {(i, (i + 1) % n): 0 for i in range(n)})


def direct_csr(triple, t):
    """Literal C (x) S^t (x) R, bypassing the residue cache."""
    st = triple.s
    for _ in range(t - 1):
        st = mat_mul(st, triple.s)
    return mat_mul(mat_mul(triple.c, st), triple.r)


# ---------------------------------------------------------------------------
# build_csr


def test_csr_of_critical_cycle_marks_shifted_diagonal():
    n = 4
    triple = build_csr(cycle_matrix(n))
    assert triple.gamma == n
    for t in range(1, 3 * n):
        cs = csr_at(triple, t)
        for i in range(n):
            for j in range(n):
                expected = 0 if (j - i) % n == t % n else None
                assert cs.raw()[i][j] == (Fraction(0) if expected == 0 else None)


def test_csr_acyclic_convention():
    triple = build_csr(zeros(3))
    assert triple.lam.is_bottom and triple.gamma == 1
    assert csr_at(triple, 5) == zeros(3)
    # a subgraph makes no sense without a critical graph
    with pytest.raises(ValueError):
        build_csr(zeros(3), subgraph=critical_graph(cycle_matrix(3)))


def test_csr_two_by_two_all_critical():
    a = MaxPlusMatrix([[-1, 0], [0, -1]])
    triple = build_csr(a)
    assert triple.gamma == 2
    assert csr_at(triple, 1)[0, 1].value == 0


def test_csr_rows_and_columns_outside_critical_nodes_are_bottom(rng):
    for _ in range(10):
        a = random_cyclic_matrix(rng, 5)
        crit = critical_graph(a)
        triple = build_csr(a)
        for i in range(5):
            for j in range(5):
                if j not in crit.nodes:
                    assert triple.c.raw()[i][j] is None
                if i not in crit.nodes:
                    assert triple.r.raw()[i][j] is None
        assert {
            (i, j) for i, j, w in triple.s.entries() if not w.is_bottom
        } == crit.arcs


def test_csr_rejects_foreign_subgraph(rng):
    a = MaxPlusMatrix([[-1, 0], [0, -2]])
    other = critical_graph(MaxPlusMatrix([[0, 0], [0, 0]]))
    with pytest.raises(ValueError):
        build_csr(a, subgraph=other)


# ---------------------------------------------------------------------------
# csr_at algebra


def test_csr_periodicity_with_lambda_shift(rng):
    for _ in range(15):
        a = random_cyclic_matrix(rng, rng.randint(2, 5))
        triple = build_csr(a)
        gamma = triple.gamma
        shift = scalar_power(triple.lam, gamma)
        for t in range(1, gamma + 3):
            assert direct_csr(triple, t + gamma) == scalar_times(shift, direct_csr(triple, t))
            assert csr_at(triple, t + gamma) == scalar_times(shift, csr_at(triple, t))
            assert csr_at(triple, t) == direct_csr(triple, t)


def test_csr_group_law_at_unit_mean(rng):
    for _ in range(15):
        a = normalized(random_cyclic_matrix(rng, rng.randint(2, 5)))
        triple = build_csr(a)
        for t1, t2 in ((1, 1), (1, 2), (2, 3), (3, 4)):
            lhs = mat_mul(csr_at(triple, t1), csr_at(triple, t2))
            assert lhs == csr_at(triple, t1 + t2)


def test_csr_shift_law_general_mean(rng):
    for _ in range(15):
        a = random_cyclic_matrix(rng, rng.randint(2, 5))
        triple = build_csr(a)
        for t in range(1, 5):
            cs = csr_at(triple, t)
            nxt = csr_at(triple, t + 1)
            assert mat_mul(a, cs) == nxt
            assert mat_mul(cs, a) == nxt


# ---------------------------------------------------------------------------
# Nachtigall matrix


def test_nachtigall_examples():
    w = wielandt_skeleton(4)
    assert nachtigall_matrix(w, critical_graph(w)) == zeros(4)  # all nodes critical

    a = from_entries(3, {(0, 1): 0, (1, 0): 0, (2, 2): -1, (2, 0): 5})
    b = nachtigall_matrix(a, critical_graph(a))
    assert b == from_entries(3, {(2, 2): -1})


def test_nachtigall_mean_strictly_drops(rng):
    for _ in range(200):
        a = random_irreducible(rng, rng.randint(2, 5))
        b = nachtigall_matrix(a, critical_graph(a))
        assert max_cycle_mean(b) < max_cycle_mean(a)


# ---------------------------------------------------------------------------
# thresholds


def test_t1_two_by_two_characterization():
    assert weak_threshold_T1(MaxPlusMatrix([[-1, 0], [0, -2]])).t1 == 2
    assert weak_threshold_T1(MaxPlusMatrix([[-1, 0], [0, -1]])).t1 == 1
    assert dm_bound(2, 2) == 2


@pytest.mark.parametrize("n,expected", [(3, 5), (5, 17)])
def test_t1_wielandt_skeleton(n, expected):
    assert weak_threshold_T1(wielandt_skeleton(n)).t1 == expected


def test_t1_acyclic_degenerates():
    a = from_entries(3, {(0, 1): 2, (1, 2): -1})
    wx = weak_threshold_T1(a)
    assert wx.t1 == 1 and wx.b == a
    assert csr_at(wx.csr, 3) == zeros(3)


def test_weak_expansion_contract_on_result(rng):
    # equality holds from t1 on (checked one period past the ceiling) and
    # fails at t1 - 1 whenever t1 > 1
    for _ in range(25):
        a = random_cyclic_matrix(rng, rng.randint(2, 8))
        wx = weak_threshold_T1(a)
        gamma = wx.csr.gamma
        ceiling = min(wielandt_bound(a.n), dm_bound(critical_graph(a).girth, a.n))
        for t in range(wx.t1, ceiling + gamma + 2):
            assert mat_power(a, t) == mat_oplus(csr_at(wx.csr, t), mat_power(wx.b, t))
        if wx.t1 > 1:
            t = wx.t1 - 1
            assert mat_power(a, t) != mat_oplus(csr_at(wx.csr, t), mat_power(wx.b, t))


def test_t1_scaling_invariance(rng):
    for _ in range(10):
        a = random_cyclic_matrix(rng, rng.randint(2, 5))
        alpha = as_scalar(Fraction(-13, 7))
        assert weak_threshold_T1(scalar_times(alpha, a)).t1 == weak_threshold_T1(a).t1


def test_t1_transpose_invariance(rng):
    for _ in range(10):
        a = random_cyclic_matrix(rng, rng.randint(2, 5))
        assert weak_threshold_T1(transpose(a)).t1 == weak_threshold_T1(a).t1


def test_csr_walk_interpretation_small(rng):
    for _ in range(10):
        a = normalized(random_cyclic_matrix(rng, rng.randint(2, 5)))
        crit = critical_graph(a)
        triple = build_csr(a)
        gamma = triple.gamma
        horizon = gamma * a.n + a.n
        for t in range(1, 9):
            oracle = csr_walk_oracle(a, crit.nodes, gamma, t, horizon)
            assert csr_at(triple, t).raw() == oracle


def test_csr_scc_decomposition_sum(rng):
    # two independent critical components plus sub-critical cross arcs
    a = from_entries(
        5,
        {
            (0, 1): 0,
            (1, 0): 0,
            (2, 3): 1,
            (3, 4): -1,
            (4, 2): 0,
            (1, 2): -2,
            (4, 0): Fraction(-1, 2),
        },
    )
    _assert_scc_sum(a)
    found = 0
    while found < 5:
        b = random_cyclic_matrix(rng, rng.randint(3, 6))
        if len(critical_graph(b).scc.components) >= 2:
            found += 1
            _assert_scc_sum(b)


def _assert_scc_sum(a):
    # one CSR triple per critical component, each built from the matrix with
    # all previously used components' rows and columns blanked out
    full = build_csr(a)
    triples = []
    current = a
    for comp in critical_components(critical_graph(a)):
        triples.append(build_csr(current, subgraph=comp))
        raw = current.raw()
        current = MaxPlusMatrix(
            [
                [
                    None if (i in comp.nodes or j in comp.nodes) else raw[i][j]
                    for j in range(a.n)
                ]
                for i in range(a.n)
            ]
        )
    for t in range(1, 7):
        acc = zeros(a.n)
        for triple in triples:
            acc = mat_oplus(acc, csr_at(triple, t))
        assert acc == csr_at(full, t)


def test_perturbation_invariance(rng):
    for _ in range(40):
        a1 = random_cyclic_matrix(rng, rng.randint(2, 5))
        csr1 = build_csr(a1)
        a2 = random_strictly_below(rng, csr_at(csr1, 1))
        assert strictly_dominated_by(a2, csr_at(csr1, 1))
        a = mat_oplus(a1, a2)
        assert max_cycle_mean(a) == max_cycle_mean(a1)
        assert critical_graph(a).arcs == critical_graph(a1).arcs
        csr = build_csr(a)
        for t in range(1, csr1.gamma + 2):
            assert csr_at(csr, t) == csr_at(csr1, t)
        assert weak_threshold_T1(a).t1 == weak_threshold_T1(a1).t1


# ---------------------------------------------------------------------------
# transient


def test_transient_pure_cycle_is_zero():
    for n in (1, 2, 5):
        assert transient_T(cycle_matrix(n)) == 0
    weighted = from_entries(3, {(0, 1): 2, (1, 2): Fraction(-1, 2), (2, 0): 1})
    assert transient_T(weighted) == 0


def test_transient_wielandt_n4():
    assert transient_T(wielandt_skeleton(4)) == 10


def test_transient_past_the_scan_cap_raises(monkeypatch):
    a = wielandt_skeleton(4)  # T = 10
    monkeypatch.setattr(csr, "_SCAN_CAP", 9)
    with pytest.raises(RuntimeError):
        transient_T(a)
    monkeypatch.setattr(csr, "_SCAN_CAP", 10)
    assert transient_T(a) == 10


def test_transient_rejects_reducible():
    with pytest.raises(ValueError):
        transient_T(from_entries(2, {(0, 0): 0, (0, 1): 0}))
    with pytest.raises(ValueError):
        transient_T(zeros(1))


def test_transient_matches_bruteforce(rng):
    for _ in range(15):
        a = random_irreducible(rng, rng.randint(2, 5))
        lam = max_cycle_mean(a)
        gamma = critical_graph(a).cyclicity
        shift = scalar_power(lam, gamma)
        powers = [None]
        cur = None
        horizon = 200
        for t in range(1, horizon + gamma + 1):
            cur = a if cur is None else mat_mul(cur, a)
            powers.append(cur)
        last_fail = 0
        for t in range(1, horizon + 1):
            if powers[t + gamma] != scalar_times(shift, powers[t]):
                last_fail = t
        brute = last_fail + 1 if last_fail else None
        got = transient_T(a)
        if brute is not None and last_fail + gamma <= horizon:
            if got >= 1:
                assert got == brute
            else:
                # T = 0 means already periodic at t = 0 as well
                assert brute == 1 or last_fail == 0


def test_transient_dominates_weak_threshold_on_irreducible(rng):
    # once the powers are periodic they coincide with the CSR term alone,
    # so the weak threshold cannot sit above the transient
    for _ in range(15):
        a = random_irreducible(rng, rng.randint(2, 5))
        t = transient_T(a)
        wx = weak_threshold_T1(a)
        start = max(t, 1)
        assert wx.t1 <= start
        for s in range(start, start + wx.csr.gamma + 1):
            assert mat_power(a, s) == csr_at(wx.csr, s)


# ---------------------------------------------------------------------------
# critical rows and columns


def test_crit_rc_never_exceeds_t1(rng):
    for _ in range(25):
        a = random_cyclic_matrix(rng, rng.randint(2, 6))
        assert crit_row_col_profile(a)[0] <= weak_threshold_T1(a).t1


def test_crit_rc_equals_t1_when_everything_critical(rng):
    cases = [wielandt_skeleton(4), wielandt_skeleton(6), cycle_matrix(5)]
    for _ in range(10):
        b = random_irreducible(rng, rng.randint(2, 5))
        boolean = MaxPlusMatrix(
            [[0 if w is not None else None for w in row] for row in b.raw()]
        )
        cases.append(boolean)
    for a in cases:
        assert critical_graph(a).nodes == set(range(a.n))
        assert crit_row_col_profile(a)[0] == weak_threshold_T1(a).t1


def test_crit_rc_on_dm_extremal_instance():
    a = generate_dm(5, 3, seed=11)
    assert crit_row_col_profile(a)[0] == dm_bound(3, 5)


def test_crit_rc_profile_per_index(rng):
    a = generate_dm(5, 2, seed=4)
    overall, rows, cols = crit_row_col_profile(a)
    assert overall == max(max(rows.values()), max(cols.values()))
    assert set(rows) == critical_graph(a).nodes
    assert all(1 <= v <= overall for v in rows.values())
    with pytest.raises(ValueError):
        crit_row_col_profile(zeros(2))[0]


def _per_index_scan(a):
    """Row and column transients of the critical indices, one index at a time."""
    crit = critical_graph(a)
    triple = build_csr(a)
    ceiling = min(wielandt_bound(a.n), dm_bound(crit.girth, a.n))
    powers = [walk_power(a, t) for t in range(1, ceiling + 1)]
    terms = [csr_at(triple, t).raw() for t in range(1, ceiling + 1)]
    rows, cols = {}, {}
    for k in crit.nodes:
        rows[k] = 1 + max(
            (t for t in range(1, ceiling + 1) if powers[t - 1][k] != terms[t - 1][k]),
            default=0,
        )
        cols[k] = 1 + max(
            (
                t
                for t in range(1, ceiling + 1)
                if any(powers[t - 1][i][k] != terms[t - 1][i][k] for i in range(a.n))
            ),
            default=0,
        )
    return rows, cols


def test_crit_rc_profile_matches_per_index_scan(rng):
    for _ in range(20):
        a = random_cyclic_matrix(rng, rng.randint(2, 5), density=rng.choice((0.3, 0.6)))
        overall, rows, cols = crit_row_col_profile(a)
        expected_rows, expected_cols = _per_index_scan(a)
        assert rows == expected_rows and cols == expected_cols
        assert overall == max(*expected_rows.values(), *expected_cols.values())


# ---------------------------------------------------------------------------
# report


def test_report_fields_match_standalone_functions(rng):
    cases = [random_irreducible(rng, rng.randint(1, 6)) for _ in range(8)]
    for _ in range(6):
        # block upper triangular: node 0 cannot be reached from the rest
        a = random_cyclic_matrix(rng, rng.randint(2, 5))
        raw = [list(row) for row in a.raw()]
        for i in range(1, a.n):
            raw[i][0] = None
        cases.append(MaxPlusMatrix(raw))
    for n in (1, 3, 5):
        # strictly upper triangular: acyclic
        cases.append(from_entries(n, {(i, j): i - j for i in range(n) for j in range(i + 1, n)}))
    kinds = set()
    for a in cases:
        report = analyze(a)
        sp = spectrum(a)
        assert report.lam == sp.lam
        assert report.t1 == weak_threshold_T1(a).t1
        try:
            t = transient_T(a)
        except ValueError:
            t = None
        assert report.t == t
        if sp.crit is None:
            kinds.add("acyclic")
            assert report.g is report.gamma is report.dm is report.crit_rc_transient is None
            continue
        kinds.add("irreducible" if t is not None else "reducible")
        assert (report.g, report.gamma) == (sp.crit.girth, sp.crit.cyclicity)
        assert report.dm == dm_bound(sp.crit.girth, a.n)
        assert report.crit_rc_transient == crit_row_col_profile(a)[0]
    assert kinds == {"acyclic", "irreducible", "reducible"}


def test_report_keys_and_values():
    report = analyze(wielandt_skeleton(5))
    d = report.as_dict()
    assert list(d) == [
        "lambda",
        "g",
        "gamma",
        "T",
        "T1",
        "wi",
        "dm",
        "attains_dm",
        "attains_wiel",
        "crit_rc_transient",
    ]
    assert d["lambda"] == "0" and d["T1"] == 17 and d["attains_wiel"] is True
    assert d["g"] == 4 and d["gamma"] == 1 and d["T"] == 17


def test_report_rational_lambda_serializes_as_fraction_string():
    a = from_entries(2, {(0, 1): Fraction(1, 3), (1, 0): 0})
    assert analyze(a).as_dict()["lambda"] == "1/6"


def test_report_acyclic_and_reducible():
    r = analyze(zeros(2))
    assert r.t1 == 1 and r.g is None and r.t is None and r.dm is None
    reducible = from_entries(3, {(0, 1): 0, (1, 0): 0, (1, 2): 0})
    r = analyze(reducible)
    assert r.t is None and r.t1 >= 1 and r.dm is not None


def test_report_bound_invariant_random(rng):
    for _ in range(20):
        n = rng.randint(2, 6)
        a = random_cyclic_matrix(rng, n)
        r = analyze(a)
        assert r.t1 <= min(r.wi, r.dm)
        assert r.crit_rc_transient <= r.t1


def test_dimension_one_report():
    r = analyze(MaxPlusMatrix([[3]]))
    assert r.t1 == 1 and r.t == 0 and r.g == 1 and r.gamma == 1
