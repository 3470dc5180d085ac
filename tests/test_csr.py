import copy
import dataclasses
import random
import signal
from collections import Counter
from fractions import Fraction
from math import gcd

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
    dm_skeleton,
    from_entries,
    generate_dm,
    generate_wielandt,
    mat_mul,
    mat_oplus,
    mat_power,
    max_cycle_mean,
    nachtigall_matrix,
    negate,
    parse_matrix,
    render_matrix,
    scalar_power,
    scalar_times,
    scc_decompose,
    spectrum,
    strictly_dominated_by,
    transient_T,
    weak_threshold_T1,
    wielandt_bound,
    wielandt_skeleton,
    zeros,
)
from maxplus import csr, digraph, extremal, matrix, spectral
from maxplus.csr import _boolean_index
from maxplus.extremal import _inherit_skeleton
from conftest import (
    PER_TEST_SECONDS,
    deadline,
    normalized,
    rand_weight,
    random_cyclic_matrix,
    random_irreducible,
    random_matrix,
    random_reducible,
    random_strictly_below,
    transpose,
)
from oracles import (
    LAZY_TRIPLE_FIELDS,
    bit_mul_rows,
    boolean_index_int,
    csr_walk_oracle,
    excess_entries,
    masked_m,
    memo_differences,
    pack_bits,
    row_transients_by_steps,
    residue_by_chain,
    transient_by_steps,
    unpack_bits,
    walk_power,
    walk_powers,
    weak_threshold_T1_full,
    weak_threshold_T2,
)

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


def _expansion_matrices(rng, count):
    """count matrices with a cycle, n 1..7: random rational ones at mixed
    densities, {0, 1}-weighted ones, and reducible ones made of two
    blocks with arcs from the first into the second only."""
    out = []
    while len(out) < count:
        n, kind = rng.randint(1, 7), rng.choice(("rational", "binary", "reducible"))
        density = rng.choice((0.3, 0.5, 0.8))
        if kind == "rational":
            a = random_matrix(rng, n, density)
        elif kind == "binary":
            a = MaxPlusMatrix([[Fraction(rng.randint(0, 1)) if rng.random() < density else None for _ in range(n)] for _ in range(n)])
        else:
            a = random_reducible(rng, n, density)
        if not max_cycle_mean(a).is_bottom:
            out.append(a)
    return out


def test_the_expansion_once_holding_holds_at_every_later_t():
    # weak_threshold_T1's proof: Q_t <= P^t gives Q_(t+1) <= P^(t+1), in
    # the whole matrix and in every row and column alone; checked up to
    # the ceiling c plus 2 gamma, past where the sweep may stop, on every
    # entry where Q_t exceeds P^t.  The sweep's _excess gives the rows and
    # the critical columns of those entries
    rng = random.Random(1709)
    late = 0
    for a in _expansion_matrices(rng, 2000):
        triple, n = build_csr(a), a.n
        step = matrix._finite_entries(triple._norm)
        at, held, rows_held, cols_held = triple._norm, False, set(), set()
        for t in range(1, csr._ceiling(triple) + 2 * triple.gamma + 1):
            excess = excess_entries(triple, t, at, range(n))
            failing, cols = csr._excess(triple, t, at, list(range(n)))
            assert failing == sorted({i for i, _ in excess}), render_matrix(a)
            assert sorted(cols) == sorted({j for _, j in excess} & triple.crit.nodes), render_matrix(a)
            assert not (held and excess), render_matrix(a)
            held = not excess
            rows = set(range(n)) - {i for i, _ in excess}
            cols = set(range(n)) - {j for _, j in excess}
            assert rows_held <= rows and cols_held <= cols, (t, render_matrix(a))
            rows_held, cols_held = rows, cols
            at = matrix._int_mul(at, step)
        late += weak_threshold_T1(a).t1 >= 3
    assert late >= 500, late


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
# one spectrum and one triple per matrix, each built only as far as it is read


def _lazy_triple_inputs():
    """240 random matrices, n 1..6: a third irreducible, the rest sparse
    enough that many are reducible or acyclic."""
    rng = random.Random(1010)
    return [
        random_irreducible(rng, rng.randint(1, 6))
        if k % 3 == 0
        else random_matrix(rng, rng.randint(1, 6), density=rng.choice((0.15, 0.3, 0.5)))
        for k in range(240)
    ]


def _loop_beside_a_cycle(count):
    """Matrices whose critical graph is a loop beside a k-cycle, k >= 2:
    the loop's triple has gamma 1, the full one gamma k.  Both weigh 0,
    every other arc is negative, and a random diagonal similarity hides
    the zeros without moving a cycle weight."""
    rng = random.Random(2024)
    for _ in range(count):
        n = rng.randint(3, 7)
        nodes = list(range(n))
        rng.shuffle(nodes)
        cycle = nodes[1 : rng.randint(3, n)]
        entries = {(nodes[0], nodes[0]): 0, **{(u, cycle[(k + 1) % len(cycle)]): 0 for k, u in enumerate(cycle)}}
        for i in range(n):
            for j in range(n):
                if (i, j) not in entries and rng.random() < 0.4:
                    entries[(i, j)] = -Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))
        d = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5))) for _ in range(n)]
        yield from_entries(n, {(i, j): w - d[i] + d[j] for (i, j), w in entries.items()})


def _recording_spectrum(monkeypatch):
    """The matrices whose spectrum is computed, in order, not merely asked for."""
    computed, compute = [], spectral._spectrum
    monkeypatch.setattr(spectral, "_spectrum", lambda a: computed.append(a) or compute(a))
    return computed


def test_a_matrix_keeps_its_spectrum_and_triple(monkeypatch, rng):
    computed = _recording_spectrum(monkeypatch)
    products, int_mul = [], matrix._int_mul
    for module in (matrix, csr):
        monkeypatch.setattr(module, "_int_mul", lambda *args: products.append(args) or int_mul(*args))
    for _ in range(10):
        text = render_matrix(random_cyclic_matrix(rng, rng.randint(2, 6)))
        first, second = parse_matrix(text), parse_matrix(text)
        computed.clear()
        triple = build_csr(first)
        products.clear()
        assert build_csr(first) is triple and spectrum(first) is spectrum(first)
        assert not products
        # no cache keyed by value: an equal matrix computes its own
        assert spectrum(second) == spectrum(first) and spectrum(second) is not spectrum(first)
        assert build_csr(second) is not triple
        assert [id(b) for b in computed] == [id(first), id(second)]


def test_generator_computes_its_candidates_spectrum_once(monkeypatch):
    # the verdict and the check of T1 at two powers share it, and the
    # candidate inherits the spectrum and triple of the skeleton a1 that
    # bounded the remainder: one spectrum per call, a1's, certified by
    # its Hamiltonian cycle (spectral._hamiltonian_spectrum) with no Karp
    # table and no closure; at cyclicity 1 the triple's M is that
    # certified closure, so no closure is taken at all
    computed = _recording_spectrum(monkeypatch)
    certified, certify, closures, close = [], extremal._hamiltonian_spectrum, [], matrix._int_closure
    monkeypatch.setattr(extremal, "_hamiltonian_spectrum", lambda b: certified.append((b, certify(b))) or certified[-1][1])
    for module in (spectral, csr, digraph):
        monkeypatch.setattr(module, "_int_closure", lambda rows: closures.append(rows) or close(rows))
    generators = [
        lambda seed: generate_dm(7, 3, seed),  # n >= 2g: the chord-power check reads CSR(a1) too
        lambda seed: generate_dm(12, 5, seed),
        lambda seed: generate_wielandt(12, seed, case="n-1"),
        lambda seed: generate_wielandt(12, seed, case="n"),
    ]
    for generate in generators:
        for seed in range(3):
            computed.clear(), certified.clear(), closures.clear()
            a = generate(seed)
            ((a1, sp),) = certified
            assert not computed and a1 is not a and a1._spectrum is sp is not None
            assert (a._spectrum.lam, a._spectrum.crit) == (sp.lam, sp.crit) and a._csr is not None
            assert len(closures) == (a._csr.gamma > 1), (a._csr.gamma, len(closures))


def _dominated_extension(rng, a1):
    """The rows of a1 plus random entries off its support, each strictly
    below CSR(a1) at t = 1 by a margin of denominator 1, 2 or 7, so that
    the candidate's scale is often a multiple of a1's."""
    bound = csr_at(build_csr(a1), 1).raw()
    raw = [row[:] for row in a1.raw()]
    for i, row in enumerate(raw):
        for j, x in enumerate(row):
            if x is None and bound[i][j] is not None and rng.random() < 0.5:
                row[j] = bound[i][j] - Fraction(rng.randint(1, 9), rng.choice((1, 2, 7)))
    return raw


def _refusals(rng, a1, raw):
    """One entry put into the extension raw that breaks the hypothesis of
    _inherit_skeleton, for each way it can break on a1."""
    bound, a1_raw, n = csr_at(build_csr(a1), 1).raw(), a1.raw(), a1.n
    off = [(i, j) for i in range(n) for j in range(n) if a1_raw[i][j] is None]
    below = [(i, j) for i, j in off if bound[i][j] is not None]
    unbounded = [(i, j) for i, j in off if bound[i][j] is None]
    on = [(i, j) for i in range(n) for j in range(n) if a1_raw[i][j] is not None]
    cases = []
    if below:
        i, j = rng.choice(below)
        cases += [("equal to CSR(a1)", i, j, bound[i][j]), ("above CSR(a1)", i, j, bound[i][j] + Fraction(1, 3))]
    if unbounded:
        i, j = rng.choice(unbounded)
        cases.append(("CSR(a1) is -inf", i, j, Fraction(rng.randint(-50, 0), rng.choice((1, 7)))))
    if on:
        i, j = rng.choice(on)
        cases.append(("a1's entry changed", i, j, a1_raw[i][j] + rng.choice((-1, Fraction(1, 2)))))
    for name, i, j, x in cases:
        bad = [row[:] for row in raw]
        bad[i][j] = x
        yield name, MaxPlusMatrix(bad)


def test_rescaled_builds_its_dataclass_with_every_field_by_name(monkeypatch):
    # spectral._inherit_spectrum and csr._inherit_triple name each field of
    # Spectrum and CsrTriple but the residues read so far
    # (oracles.LAZY_TRIPLE_FIELDS), which the triple handed over starts
    # without: a field added to either and not handled there fails here,
    # instead of being left at its default, a stale memo on the matrix
    # that inherits
    a = random_cyclic_matrix(random.Random(22), 6)
    sp, triple, b = spectrum(a), build_csr(a), MaxPlusMatrix(a.raw())
    csr._residue(triple, 1)
    for module, cls, rescale in (
        (spectral, spectral.Spectrum, lambda: spectral._inherit_spectrum(b, sp)),
        (csr, csr.CsrTriple, lambda: csr._inherit_triple(b, triple)),
    ):
        calls = []

        def recorded(*args, cls=cls, **kwargs):
            calls.append((args, set(kwargs)))
            return cls(*args, **kwargs)

        monkeypatch.setattr(module, cls.__name__, recorded)
        rescale()
        assert calls == [((), {f.name for f in dataclasses.fields(cls)} - set(LAZY_TRIPLE_FIELDS))], cls.__name__
    assert triple._residues and b._csr._residues == {}


def test_a_candidate_inherits_its_skeletons_spectrum_and_triple():
    # what _inherit_skeleton stores, rescaled to the candidate, equals
    # spectrum and build_csr run on a copy with empty memos, and so does
    # analyze's report; a candidate that breaks the hypothesis gets nothing
    kinds = Counter()
    generated = [generate_dm(n, g, seed) for n in range(3, 11) for g in range(2, n) if gcd(g, n) == 1 for seed in range(2)]
    generated += [generate_wielandt(n, seed, case=case) for n in range(2, 11) for case in ("n-1", "n") for seed in range(2)]
    for a in generated:
        assert a._spectrum is not None and a._csr is not None
        assert memo_differences(a) == []
        assert analyze(a).as_dict() == analyze(MaxPlusMatrix(a.raw())).as_dict()
        kinds["generated, gamma > 1"] += a._csr.gamma > 1
    rng = random.Random(1818)
    for a1 in [*_lazy_triple_inputs(), *_loop_beside_a_cycle(40)]:
        sp = spectrum(a1)
        raw = _dominated_extension(rng, a1)
        candidate = MaxPlusMatrix(raw)
        _inherit_skeleton(candidate, a1)
        if sp.crit is None:  # an acyclic a1 lends nothing
            assert candidate._spectrum is None and candidate._csr is None
            kinds["acyclic"] += 1
        else:
            assert memo_differences(candidate) == []
            assert analyze(candidate).as_dict() == analyze(MaxPlusMatrix(raw)).as_dict()
            kinds["irreducible" if sp._strongly_connected else "reducible"] += 1
            kinds["gamma > 1"] += build_csr(a1).gamma > 1
            kinds["non-integer lambda"] += sp.lam.value.denominator > 1
            kinds["extended and rescaled"] += candidate._spectrum._d != sp._d
        for name, refused in _refusals(rng, a1, raw):
            _inherit_skeleton(refused, a1)
            assert refused._spectrum is None and refused._csr is None, name
            kinds[name] += 1
    assert len(generated) == 80 and kinds["generated, gamma > 1"] == 18
    assert min(kinds[kind] for kind in ("acyclic", "irreducible", "reducible", "gamma > 1", "non-integer lambda")) >= 30
    assert kinds["extended and rescaled"] >= 50
    assert min(kinds[name] for name in ("equal to CSR(a1)", "above CSR(a1)", "CSR(a1) is -inf")) >= 50
    assert kinds["a1's entry changed"] >= 150, kinds


def test_analyze_closes_once_at_cyclicity_one_and_twice_above(monkeypatch, rng):
    # at gamma = 1, M = I (+) P+ is the closure the spectrum already took
    closures, close = [], matrix._int_closure
    for module in (spectral, csr):
        monkeypatch.setattr(module, "_int_closure", lambda rows: closures.append(rows) or close(rows))
    kinds = Counter()
    inputs = [random_cyclic_matrix(rng, rng.randint(1, 6)) for _ in range(60)]
    inputs += [cycle_matrix(n) for n in range(1, 6)] + list(_loop_beside_a_cycle(5))
    for a in inputs:
        closures.clear()
        gamma = analyze(a).gamma
        assert len(closures) == (1 if gamma == 1 else 2)
        kinds[gamma == 1] += 1
    assert kinds[True] >= 20 and kinds[False] >= 20


def test_lazy_triples_match_the_walk_oracle():
    # full and per-component triples, residues read at shuffled t; C and R
    # against the columns and rows of M = ((A - lambda)^gamma)^*
    rng = random.Random(11)
    kinds = Counter()
    for a in [*_lazy_triple_inputs(), *_loop_beside_a_cycle(30)]:
        n, sp, full = a.n, spectrum(a), build_csr(a)
        if sp.crit is None:
            kinds["acyclic"] += 1
            assert full.c == full.r == full.s == zeros(n) and csr_at(full, 3) == zeros(n)
            continue
        kinds["irreducible" if sp._strongly_connected else "reducible"] += 1
        lam, an = sp.lam.value, scalar_times(negate(sp.lam), a)
        parts = [(sp.crit, full)] + [(k, build_csr(a, subgraph=k)) for k in critical_components(sp.crit)]
        for k, triple in parts:
            gamma = k.cyclicity
            ts = list(range(1, gamma + 3))
            rng.shuffle(ts)
            for t in ts:
                walks = csr_walk_oracle(an, k.nodes, gamma, t, gamma * n + n)
                expected = [[None if x is None else x + t * lam for x in row] for row in walks]
                assert csr_at(triple, t).raw() == expected
            # P^gamma has no positive cycle, so M = I (+) P^gamma (+) ... (+) P^(gamma (n - 1))
            m = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
            for p in walk_powers(an, gamma * (n - 1))[gamma::gamma]:
                for i in range(n):
                    for j in range(n):
                        if p[i][j] is not None and (m[i][j] is None or p[i][j] > m[i][j]):
                            m[i][j] = p[i][j]
            assert triple.c.raw() == [[m[i][j] if j in k.nodes else None for j in range(n)] for i in range(n)]
            assert triple.r.raw() == [[m[i][j] if i in k.nodes else None for j in range(n)] for i in range(n)]
            # the integer rows M are the closure of P^gamma, at gamma = 1
            # the spectrum's closure P+ itself, and equal a fresh closure
            m = [row[:] for row in matrix._int_power(sp._norm, gamma)]
            matrix._int_closure(m)
            assert triple._m == m and (triple._m is sp._closure) == (gamma == 1)
            if gamma == 1 and sp.crit.cyclicity > 1:
                kinds["component at gamma 1, full gamma > 1"] += 1
    assert min(kinds[kind] for kind in ("acyclic", "reducible", "irreducible")) >= 20
    assert kinds["component at gamma 1, full gamma > 1"] >= 20


def test_spectrum_records_strong_connectivity():
    for a in _lazy_triple_inputs():
        assert spectrum(a)._strongly_connected == (len(scc_decompose(a).components) == 1)


# ---------------------------------------------------------------------------
# transient


def test_transient_pure_cycle_is_zero():
    for n in (1, 2, 5):
        assert transient_T(cycle_matrix(n)) == 0
    weighted = from_entries(3, {(0, 1): 2, (1, 2): Fraction(-1, 2), (2, 0): 1})
    assert transient_T(weighted) == 0


def test_transient_wielandt_n4():
    assert transient_T(wielandt_skeleton(4)) == 10


def small_gap(eps):
    """lambda = 0 on the loop at node 0, and the next cycle mean is -eps.

    A walk of length t that stays on the loop at node 2 weighs -eps*t,
    and one that detours through node 0 weighs -20, so entry (2, 2) of
    A^t settles only at T = 20/eps."""
    return MaxPlusMatrix([[0, -5, N], [-5, -eps, -5], [N, -5, -eps]])


def test_transient_of_a_small_gap_is_found_in_logarithmic_products(monkeypatch):
    products = Counter()
    int_mul = matrix._int_mul

    def counted(*args):
        products["_int_mul"] += 1
        return int_mul(*args)

    for module in (matrix, spectral, csr):
        if "_int_mul" in vars(module):
            monkeypatch.setattr(module, "_int_mul", counted)
    for eps in (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10**6)):
        a = small_gap(eps)
        spectrum(a)  # Karp's rows are products too: counted before
        products.clear()
        assert transient_T(a) == 20 / eps
        assert products["_int_mul"] <= 150


def test_T1_only_callers_stop_at_T1(monkeypatch):
    # no T is looked for without analyze: T1 and the critical row and
    # column transients need the powers up to P^T1 alone, t1 - 1 steps
    skeleton = wielandt_skeleton(5)  # T = T1 = 17, the ceiling
    gap = small_gap(Fraction(1, 1000))  # T = 20000, far past the ceiling 4
    t1, rows, cols = weak_threshold_T1_full(skeleton)
    assert t1 == 17 and crit_row_col_profile(skeleton) == (17, rows, cols)
    assert weak_threshold_T1(gap).t1 == 2 and crit_row_col_profile(gap)[0] == 2
    for a, t1 in ((skeleton, 17), (gap, 2)):
        triple = build_csr(a)
        for t in range(1, triple.gamma + 1):
            csr_at(triple, t)  # M and the residues are computed before the count
        products = []
        monkeypatch.setattr(csr, "_int_mul", lambda *args: products.append(args) or matrix._int_mul(*args))
        for caller in (weak_threshold_T1, crit_row_col_profile):
            products.clear()
            caller(a)
            assert len(products) == t1 - 1
        monkeypatch.undo()


def test_transient_search_matches_the_stepping_search():
    # transient_T, analyze and the critical graph's boolean index against
    # the search one power at a time; past the ceiling the library gallops
    rng = random.Random(11)
    kinds = Counter()

    def stepping_index(crit):
        worst = 0
        for comp in crit.scc.components:
            nodes = sorted(comp.nodes)
            rows = [[0 if (i, j) in crit.arcs else N for j in nodes] for i in nodes]
            worst = max(worst, transient_by_steps(rows, comp.cyclicity))
        return worst

    for k in range(1000):
        n, density = k % 8 + 1, rng.choice((0.2, 0.4, 0.8))
        a = random_irreducible(rng, n, density) if k % 2 == 0 else random_matrix(rng, n, density)
        if max_cycle_mean(a).is_bottom:
            continue
        crit = critical_graph(a)
        assert _boolean_index(crit) == stepping_index(crit)
        if len(scc_decompose(a).components) > 1:
            kinds["reducible"] += 1
            assert analyze(a).t is None
            continue
        lam = max_cycle_mean(a).value
        t = transient_by_steps([[N if x is None else x - lam for x in row] for row in a.raw()], crit.cyclicity)
        assert transient_T(a) == t == analyze(a).t
        kinds["irreducible"] += 1
        kinds["past the ceiling"] += t > min(wielandt_bound(n), dm_bound(crit.girth, n))
    assert kinds["irreducible"] >= 500 and kinds["past the ceiling"] >= 50 and kinds["reducible"] >= 200


def _near_critical_loop(rng):
    """A random irreducible matrix, n 3..6, with a loop at a node off the
    critical graph weighing lambda - eps, eps 1/4, 1/16 or 1/64: a cycle
    just below lambda, which puts T past the ceiling, up to about 2000."""
    while True:
        a = random_irreducible(rng, rng.randint(3, 6), rng.choice((0.2, 0.4)))
        off = sorted(set(range(a.n)) - critical_graph(a).nodes)
        if off:
            raw = [row[:] for row in a.raw()]
            v = rng.choice(off)
            raw[v][v] = max_cycle_mean(a).value - Fraction(1, rng.choice((4, 16, 64)))
            return MaxPlusMatrix(raw)


def _assert_tests_only_failing_rows(calls, n, t1):
    # every row at t = 1, then the rows that failed at t - 1, and no call
    # once none failed or past t1
    failing = list(range(n))
    for k, (t, rows, excess) in enumerate(calls, 1):
        assert t == k <= t1 and rows == failing != [], (t, rows, failing, t1)
        failing = sorted({i for i, _ in excess})


def test_the_sweep_tests_only_failing_rows_and_steps_past_the_ceiling(monkeypatch):
    # analyze, weak_threshold_T1 and crit_row_col_profile against the
    # oracles: T1 and the row and column transients by the full ceiling
    # scan, T step by step, and past the ceiling the rows analyze's
    # sweep steps at each step by the rows' own transients T_i (row i is
    # stepped at t while max(T_i, 1) > t), up to T or to its hand-over to
    # the galloping search: the failing rows of _int_mul's one product,
    # if any, and the holding rows of the step's one _step_holding call.
    # Each test gives the rows and the critical columns of the entries
    # where Q_t exceeds P^t, by the oracle
    excess_calls, left_rows, handovers, pending = [], [], [], []
    excess, int_mul, step_holding, transient = csr._excess, matrix._int_mul, csr._step_holding, csr._transient

    def recorded_excess(triple, t, at, rows):
        found = excess(triple, t, at, rows)
        entries = excess_entries(triple, t, at, rows)
        assert found[0] == sorted({i for i, _ in entries}) and sorted(found[1]) == sorted({j for _, j in entries} & triple.crit.nodes)
        excess_calls.append((t, list(rows), entries))
        return found

    def recorded_transient(norm, t, *args):
        handovers.append((t, len(left_rows)))  # where the search starts, after how many products
        return transient(norm, t, *args)

    def recorded_step(nxt, at, residue, holding, b):  # the last call of a step: the rows it stepped
        assert len(pending) <= 1, "more than one product of failing rows in a step"
        left_rows.append(sum(pending) + len(holding))
        pending.clear()
        return step_holding(nxt, at, residue, holding, b)

    monkeypatch.setattr(csr, "_excess", recorded_excess)
    monkeypatch.setattr(csr, "_int_mul", lambda arows, b: pending.append(len(arows)) or int_mul(arows, b))
    monkeypatch.setattr(csr, "_step_holding", recorded_step)
    monkeypatch.setattr(csr, "_transient", recorded_transient)
    rng = random.Random(1717)
    corpus = []
    for k in range(900):
        n, density = k % 8 + 1, rng.choice((0.2, 0.4, 0.8))
        corpus.append((random_irreducible, random_matrix, random_reducible)[k % 3](rng, n, density))
    corpus += [_near_critical_loop(rng) for _ in range(100)]
    kinds = Counter()
    for a in corpus:
        t1, rows, cols = weak_threshold_T1_full(a)
        crit_rc = max([*rows.values(), *cols.values()], default=None)
        excess_calls.clear()
        wx = weak_threshold_T1(a)
        assert (wx.t1, wx.rows, wx.cols) == (t1, rows, cols)
        _assert_tests_only_failing_rows(excess_calls, a.n, t1)
        triple = wx.csr
        if triple.crit is None:
            assert analyze(a).t1 == 1
            continue
        assert crit_row_col_profile(a) == (crit_rc, rows, cols)
        gamma = triple.gamma
        for t in range(1, gamma + 1):
            csr._residue(triple, t)  # read first, so the sweep's products are its steps alone
        excess_calls.clear(), left_rows.clear(), handovers.clear(), pending.clear()
        report = analyze(a)
        assert (report.t1, report.crit_rc_transient) == (t1, crit_rc)
        _assert_tests_only_failing_rows(excess_calls, a.n, t1)
        if not spectrum(a)._strongly_connected:
            assert report.t is None
            kinds["reducible"] += 1
            continue
        kinds["irreducible"] += 1
        p = normalized(a).raw()
        big_t = transient_by_steps(p, gamma)
        assert report.t == big_t
        if big_t <= csr._ceiling(triple):
            continue
        kinds["past the ceiling"] += 1
        if handovers:
            (stop, steps), = handovers
            kinds["handed over"] += 1
        else:
            stop, steps = big_t, len(left_rows)
            kinds["stepped to T"] += 1
        periodic_from = row_transients_by_steps(p, gamma, stop)
        assert steps == stop - 1
        assert left_rows[:steps] == [sum(ti is None or max(ti, 1) > t for ti in periodic_from) for t in range(1, stop)]
    assert kinds["irreducible"] >= 500 and kinds["reducible"] >= 200 and kinds["past the ceiling"] >= 50, kinds
    assert kinds["stepped to T"] >= 30 and kinds["handed over"] >= 10, kinds


def _fractions(d, rows):
    """int-or-None rows scaled by d as Fraction-or-None rows."""
    return [[None if x is None else Fraction(x, d) for x in row] for row in rows]


class _Reads(list):
    """A list of rows that records the index of each row read from it."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, k):
        self.read.append(k)
        return super().__getitem__(k)


def test_analyze_steps_then_gallops_on_a_small_gap(monkeypatch):
    # T = 20/eps lies far past the ceiling 4: the sweep steps while its
    # steps cost less than galloping would, then hands over.  Galloping
    # from c + 1 alone, from P^(c+1) with the residues read, takes 869,
    # 1193 and 2003 entry operations; the rule may cost up to twice that,
    # the holding rows' steps counted at the rows of B - lambda they read,
    # and at most 300 products and steps
    ops = Counter()
    int_mul, step_holding = matrix._int_mul, csr._step_holding

    def counted(arows, bfinite):
        ops["_int_mul"] += 1
        ops["entries"] += sum(len(bfinite[k]) for row in arows for k, x in enumerate(row) if x is not None)
        assert ops["_int_mul"] + ops["steps"] <= 300, "more than 300 products and steps"
        return int_mul(arows, bfinite)

    def counted_step(nxt, at, residue, holding, b):
        reads = _Reads(b)
        step_holding(nxt, at, residue, holding, reads)
        ops["steps"] += 1
        ops["entries"] += sum(len(b[k]) for k in reads.read)
        assert ops["_int_mul"] + ops["steps"] <= 300, "more than 300 products and steps"

    for module in (matrix, spectral, csr):
        if "_int_mul" in vars(module):
            monkeypatch.setattr(module, "_int_mul", counted)
    monkeypatch.setattr(csr, "_step_holding", counted_step)
    handovers = []
    transient = csr._transient
    monkeypatch.setattr(csr, "_transient", lambda *args: handovers.append(args[1]) or transient(*args))
    for eps, galloping in ((Fraction(1, 100), 869), (Fraction(1, 1000), 1193), (Fraction(1, 10**6), 2003)):
        a = small_gap(eps)
        spectrum(a)  # Karp's rows are products too: counted before
        ops.clear(), handovers.clear()
        assert analyze(a).t == 20 / eps
        assert ops["entries"] <= 2 * galloping and len(handovers) == 1, (eps, ops)


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
# the residue: a row of P^t that meets it is periodic, and T = max(T1, T2)


def _binary(rng, n, density):
    """A random matrix with weights 0 and 1: many critical cycles, often gamma > 1."""
    return MaxPlusMatrix([[rng.randint(0, 1) if rng.random() < density else None for _ in range(n)] for _ in range(n)])


def test_the_residue_times_P_is_the_next_residue():
    # the lemma of csr._sweep: Q_t P = Q_(t+1) for t = 1..gamma, Q_(gamma+1)
    # being Q_1, on irreducible, reducible and {0, 1}-weighted input
    rng = random.Random(2112)
    kinds = Counter()
    for k in range(1000):
        n, density = k % 9 + 1, rng.choice((0.15, 0.3, 0.6))
        a = (random_irreducible, random_reducible, _binary, _binary)[k % 4](rng, n, density)
        triple = build_csr(a)
        if triple.crit is None:
            continue
        step = matrix._finite_entries(triple._norm)
        for t in range(1, triple.gamma + 1):
            assert matrix._int_mul(csr._residue(triple, t), step) == csr._residue(triple, t + 1), (render_matrix(a), t)
        kinds["cyclic"] += 1
        kinds["gamma > 1"] += triple.gamma > 1
        kinds["reducible"] += not spectrum(a)._strongly_connected
    assert kinds["cyclic"] >= 800 and kinds["gamma > 1"] >= 200 and kinds["reducible"] >= 200, kinds


def test_each_row_retires_where_it_meets_the_residue(monkeypatch):
    # analyze's sweep steps at t exactly the rows i of P^t with
    # max(T_i, 1) > t, T_i where row i turns periodic by the oracle, in
    # order, up to max(T, 1) or to its hand-over, where the steps it made
    # before _transient's products are counted.  A row that fails at t
    # goes to the step's one product with its values, in full; a row
    # that holds (Q_t <= P^t on it) goes to the step's one _step_holding
    # call with its rows of P^t and Q_t, onto its row of Q_(t+1), by the
    # walk powers and csr_at, and comes out as its row of P^(t+1).  Each
    # finite entry of a holding row that equals Q_t's is one the step
    # skips.  A step past max(T, 1) - 1, or a product past those steps and
    # one search, 3*bit_length(T) products at most, fails at once
    rng = random.Random(2114)
    steps, pending, handovers, cap = [], [], [], [None, None]
    int_mul, step_holding, transient = matrix._int_mul, csr._step_holding, csr._transient

    def recorded(arows, b):
        pending.append(arows)
        assert cap[1] is None or len(pending) + len(steps) <= cap[1], "more products than the steps to T and one search"
        return int_mul(arows, b)

    def recorded_step(nxt, at, residue, holding, b):
        starts = [nxt[i] for i in holding]
        step_holding(nxt, at, residue, holding, b)
        steps.append((pending[:], holding, [at[i] for i in holding], [residue[i] for i in holding], starts, [nxt[i] for i in holding]))
        pending.clear()
        assert cap[0] is None or len(steps) <= cap[0], "more steps than max(T, 1) - 1"

    monkeypatch.setattr(csr, "_int_mul", recorded)
    monkeypatch.setattr(csr, "_step_holding", recorded_step)
    monkeypatch.setattr(csr, "_transient", lambda norm, t, *args: handovers.append((t, len(steps))) or transient(norm, t, *args))
    kinds = Counter()
    corpus = [random_irreducible(rng, k % 8 + 1, rng.choice((0.2, 0.4, 0.8))) for k in range(300)]
    corpus += [_near_critical_loop(rng) for _ in range(40)]
    for a in corpus:
        triple, cap[:] = build_csr(a), [None, None]
        for t in range(1, triple.gamma + 1):
            csr._residue(triple, t)  # read first, so the products recorded are the sweep's steps
        big_t = transient_by_steps(normalized(a).raw(), triple.gamma)
        cap[:] = [max(big_t, 1) - 1, max(big_t, 1) - 1 + 3 * big_t.bit_length()]
        steps.clear(), pending.clear(), handovers.clear()
        t, *_ = csr._sweep(triple, True)
        assert t == big_t
        stop, made = handovers[0] if handovers else (max(t, 1), len(steps))  # the hand-over's t and steps before it
        p = normalized(a)
        periodic_from = row_transients_by_steps(p.raw(), triple.gamma, stop)
        powers = walk_powers(p, stop)
        lam, d = triple.lam.value, triple._d
        residues = [None] + [
            [[None if x is None else x - s * lam for x in row] for row in csr_at(triple, s).raw()] for s in range(1, stop + 1)
        ]
        for s, (products, holding, at, residue, starts, out) in enumerate(steps, 1):
            rows = [i for i, ti in enumerate(periodic_from) if ti is None or max(ti, 1) > s]
            q = residues[s]
            failing = [i for i in rows if any(z is not None and (y is None or z > y) for y, z in zip(powers[s][i], q[i]))]
            assert [_fractions(d, arows) for arows in products] == ([[powers[s][i] for i in failing]] if failing else [])
            assert holding == [i for i in rows if i not in failing]
            assert _fractions(d, at) == [powers[s][i] for i in holding] and _fractions(d, residue) == [q[i] for i in holding]
            assert _fractions(d, starts) == [residues[s + 1][i] for i in holding]
            assert _fractions(d, out) == [powers[s + 1][i] for i in holding]
            kinds["holding rows"] += len(holding)
            kinds["entries skipped"] += sum(y is not None and y == z for i in holding for y, z in zip(powers[s][i], q[i]))
        assert len(steps) == stop - 1 and made == len(steps) and len(handovers) <= 1
        kinds["handed over" if handovers else "stepped to T"] += 1
        kinds["gamma > 1"] += triple.gamma > 1
    assert kinds["stepped to T"] >= 250 and kinds["handed over"] >= 10 and kinds["gamma > 1"] >= 20, kinds
    assert kinds["holding rows"] >= 4000 and kinds["entries skipped"] >= 10000, kinds


def _imprimitive(rng, n, classes):
    """A random strongly connected matrix whose arcs all lead from class
    c to class c + 1 (mod classes), node i in class i % classes, with
    classes dividing n: the cycle 0 -> 1 -> ... -> n - 1 -> 0 plus chords,
    so every power keeps -inf entries."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if j == (i + 1) % n or j % classes == (i + 1) % classes and rng.random() < 0.5:
                rows[i][j] = rand_weight(rng)
    return MaxPlusMatrix(rows)


def test_a_holding_row_steps_only_its_entries_above_the_residue(monkeypatch):
    # analyze's sweep steps a row that holds at t (Q_t <= P^t on it) at its
    # entries S above Q_t alone, each by its row of B - lambda: the step
    # reads the rows k in S of B - lambda, in order, and no other, so it
    # makes exactly the sum over k in S of |B_k| entry operations, |B_k|
    # the finite entries of row k of B - lambda, P's off the critical rows
    # and columns; a failing row goes to _int_mul and makes them over every
    # finite entry of its row and all of P's, and the T1-only sweep makes
    # no holding step.  analyze, weak_threshold_T1 and crit_row_col_profile
    # meet the oracles: T by stepping, T1 and the row and column
    # transients by the full ceiling scan, and the rows each step
    # multiplies by where each turns periodic.  On random irreducible
    # matrices, imprimitive ones whose powers keep -inf entries, reducible
    # ones, on which analyze stops at T1 and some rows never retire, and a
    # small gap, whose T lies past the ceiling
    steps, pending, handovers = [], [], []
    int_mul, step_holding, transient = matrix._int_mul, csr._step_holding, csr._transient

    def recorded_step(nxt, at, residue, holding, b):
        reads = _Reads(b)
        step_holding(nxt, at, residue, holding, reads)
        steps.append((pending[:], holding, b, reads.read))
        pending.clear()

    monkeypatch.setattr(csr, "_int_mul", lambda arows, b: pending.append((arows, b)) or int_mul(arows, b))
    monkeypatch.setattr(csr, "_step_holding", recorded_step)
    monkeypatch.setattr(csr, "_transient", lambda norm, t, *args: handovers.append((t, len(steps))) or transient(norm, t, *args))
    rng = random.Random(3301)
    corpus = [("irreducible", random_irreducible(rng, 6 + k % 11, rng.choice((0.15, 0.3, 0.45, 0.6)))) for k in range(22)]
    corpus += [("imprimitive", _imprimitive(rng, n, classes)) for n, classes in [(6, 2), (6, 3), (8, 2), (9, 3), (12, 3), (12, 4)] * 3]
    corpus += [("reducible", random_reducible(rng, rng.randint(6, 10), rng.choice((0.3, 0.5)))) for _ in range(30)]
    corpus.append(("small gap", small_gap(Fraction(1, 50))))
    kinds = Counter()
    for kind, a in corpus:
        t1, rows, cols = weak_threshold_T1_full(a)
        crit_rc = max([*rows.values(), *cols.values()], default=None)
        wx = weak_threshold_T1(a)
        assert (wx.t1, wx.rows, wx.cols) == (t1, rows, cols), render_matrix(a)
        triple = wx.csr
        if triple.crit is None:
            continue
        assert crit_row_col_profile(a) == (crit_rc, rows, cols), render_matrix(a)
        for t in range(1, triple.gamma + 1):
            csr._residue(triple, t)  # read first, so the products recorded are the sweep's steps
        steps.clear(), pending.clear(), handovers.clear()
        report = analyze(a)
        assert (report.t1, report.crit_rc_transient) == (t1, crit_rc), render_matrix(a)
        if not spectrum(a)._strongly_connected:
            assert report.t is None and steps == [] and len(pending) == t1 - 1, render_matrix(a)
            kinds["reducible, stepped"] += t1 > 1
            continue
        p = normalized(a).raw()
        assert report.t == transient_by_steps(p, triple.gamma), render_matrix(a)
        if len(triple.crit.nodes) == a.n:
            continue  # one search from t = 0, no sweep
        stop, made = handovers[0] if handovers else (max(report.t, 1), len(steps))
        periodic_from = row_transients_by_steps(p, triple.gamma, stop)
        powers, lam, crit = walk_powers(normalized(a), stop), triple.lam.value, triple.crit.nodes
        nnz = [sum(x is not None for x in row) for row in p]
        b_rows = [[] if k in crit else [(j, x) for j, x in enumerate(row) if x is not None and j not in crit] for k, row in enumerate(p)]
        nnz_b = list(map(len, b_rows))
        assert made == len(steps) == stop - 1
        for s, (products, holding, b, reads) in enumerate(steps, 1):
            assert [[(j, Fraction(y, triple._d)) for j, y in row] for row in b] == b_rows, render_matrix(a)
            active = [i for i, ti in enumerate(periodic_from) if ti is None or max(ti, 1) > s]
            q = [[None if x is None else x - s * lam for x in row] for row in csr_at(triple, s).raw()]
            held = [i for i in active if all(z is None or y is not None and z <= y for y, z in zip(powers[s][i], q[i]))]
            assert holding == held, (render_matrix(a), s)
            above = [[k for k, (y, z) in enumerate(zip(powers[s][i], q[i])) if y is not None and (z is None or y > z)] for i in held]
            assert reads == [k for ks in above for k in ks], (render_matrix(a), s)
            assert sum(len(b[k]) for k in reads) == sum(nnz_b[k] for ks in above for k in ks)
            for arows, step in products:
                failing = [i for i in active if i not in held]
                assert len(arows) == len(failing), (render_matrix(a), s)
                for row, i in zip(arows, failing):
                    ops = sum(len(step[k]) for k, x in enumerate(row) if x is not None)
                    assert ops == sum(nnz[k] for k, y in enumerate(powers[s][i]) if y is not None), (render_matrix(a), s, i)
            kinds[f"{kind}, holding row steps"] += len(held)
            kinds["holding row steps below a full row"] += sum(
                len(ks) < sum(y is not None for y in powers[s][i]) for i, ks in zip(held, above)
            )
        kinds[f"{kind}, handed over" if handovers else f"{kind}, stepped to T"] += 1
    assert kinds["irreducible, holding row steps"] >= 500 and kinds["imprimitive, holding row steps"] >= 150, kinds
    assert kinds["small gap, holding row steps"] >= 20 and kinds["small gap, handed over"] == 1, kinds
    assert kinds["holding row steps below a full row"] >= 800 and kinds["reducible, stepped"] >= 15, kinds


class _Stop(Exception):
    """Ends a sweep where the test has seen enough of its steps."""


def test_every_row_the_sweep_steps_is_its_row_of_the_next_power(monkeypatch):
    # csr._sweep with transient, up to T, its hand-over to the search, or
    # a horizon past the ceiling, where the test stops it: after each
    # step from P^t, every row it stepped, failing (_int_mul's one
    # product) or holding (_step_holding's one call), is its row of
    # P^(t+1) by oracles.walk_powers, and so is every retired row, read
    # from Q_(t+1).  A holding step reads only rows k of B - lambda off
    # the critical nodes, and no entry of them lies in a critical column:
    # the entries of P's rows k in the critical columns are dropped.  On
    # random irreducible matrices, imprimitive ones, reducible ones, on
    # which some rows never retire, and small gaps, whose T lies past the
    # ceiling
    steps, pending, horizon = [], [], [0]
    int_mul, step_holding = matrix._int_mul, csr._step_holding

    def recorded(arows, b):
        out = int_mul(arows, b)
        pending.append((arows, out))
        return out

    def recorded_step(nxt, at, residue, holding, b):
        reads = _Reads(b)
        step_holding(nxt, at, residue, holding, reads)
        steps.append((pending[:], at, residue, holding, b, reads.read, nxt))
        pending.clear()
        if len(steps) >= horizon[0]:
            raise _Stop

    def search(*args):
        raise _Stop

    monkeypatch.setattr(csr, "_int_mul", recorded)
    monkeypatch.setattr(csr, "_step_holding", recorded_step)
    monkeypatch.setattr(csr, "_transient", search)
    rng = random.Random(4201)
    corpus = [("irreducible", random_irreducible(rng, 3 + k % 9, rng.choice((0.15, 0.3, 0.5)))) for k in range(60)]
    corpus += [("imprimitive", _imprimitive(rng, n, classes)) for n, classes in [(6, 2), (6, 3), (8, 2), (9, 3), (12, 4)] * 2]
    corpus += [("reducible", random_reducible(rng, rng.randint(4, 10), rng.choice((0.3, 0.5)))) for _ in range(40)]
    corpus += [("small gap", small_gap(eps)) for eps in (Fraction(1, 50), Fraction(1, 7))]
    kinds = Counter()
    for kind, a in corpus:
        triple = build_csr(a)
        if triple.crit is None:
            continue
        for t in range(1, triple.gamma + 1):
            csr._residue(triple, t)  # read first, so the products recorded are the sweep's steps
        steps.clear(), pending.clear()
        horizon[0] = csr._ceiling(triple) + 4
        try:
            csr._sweep(triple, True)
        except _Stop:
            pass
        d, crit = triple._d, triple.crit.nodes
        p = normalized(a)
        powers, raw = walk_powers(p, len(steps) + 1), p.raw()

        for s, (products, at, residue, holding, b, reads, nxt) in enumerate(steps, 1):
            assert _fractions(d, at) == powers[s] and _fractions(d, nxt) == powers[s + 1], (render_matrix(a), s)
            failing = [i for i in range(a.n) if at[i] != residue[i] and i not in holding]
            if failing:
                (arows, out), = products
                assert arows == [at[i] for i in failing] and _fractions(d, out) == [powers[s + 1][i] for i in failing]
            else:
                assert products == []
            assert _fractions(d, [nxt[i] for i in holding]) == [powers[s + 1][i] for i in holding]
            assert not crit & set(reads) and not any(j in crit for k in reads for j, _ in b[k]), (render_matrix(a), s)
            kinds[f"{kind}, holding steps"] += len(holding)
            kinds[f"{kind}, failing steps"] += len(failing)
            kinds["critical entries dropped"] += sum(raw[k][j] is not None for k in reads for j in crit)
    assert kinds["irreducible, holding steps"] >= 800 and kinds["imprimitive, holding steps"] >= 50, kinds
    assert kinds["reducible, holding steps"] >= 1200 and kinds["small gap, holding steps"] >= 20, kinds
    assert kinds["irreducible, failing steps"] >= 1000 and kinds["critical entries dropped"] >= 3000, kinds


def test_T_is_the_larger_of_T1_and_T2():
    # the paper's identity, ROADMAP direction 3: max(T, 1) = max(T1, T2),
    # T2 the least t >= 1 from which (B - lambda)^s <= Q_s, by the oracle
    rng = random.Random(2113)
    kinds = Counter()
    for k in range(600):
        a = random_irreducible(rng, k % 8 + 2, rng.choice((0.2, 0.4, 0.8)))
        report = analyze(a)
        big_t = transient_by_steps(normalized(a).raw(), report.gamma)
        assert report.t == big_t
        t2 = weak_threshold_T2(a, max(big_t, 1))
        assert max(report.t, 1) == max(report.t1, t2), render_matrix(a)
        kinds["T2 > T1" if t2 > report.t1 else "T2 < T1" if t2 < report.t1 else "T2 = T1"] += 1
    assert kinds["T2 > T1"] >= 100 and kinds["T2 < T1"] >= 100, kinds


def test_the_boolean_index_reads_each_components_residue_in_closed_form():
    # csr._class_masks against _residue of each component's own
    # 0/-inf matrix, at t = 0 (Q_gamma) to gamma, over every component:
    # the residue is one int of n^2 bits (oracles.unpack_bits splits it
    # into its n bit rows), and row i of the component's residue, read
    # as a bit row over all nodes, is its row i; the rows off the
    # critical graph are 0, no bit lies past n^2, and t and t + gamma
    # read the one packed int
    rng = random.Random(2115)
    kinds = Counter()
    while kinds["critical graphs"] < 300:
        n = rng.randint(1, 9)
        a = (_binary if kinds["critical graphs"] % 2 else random_matrix)(rng, n, rng.choice((0.2, 0.4)))
        crit = spectrum(a).crit
        if crit is None:
            continue
        kinds["critical graphs"] += 1
        residue = csr._class_masks(digraph._successors(n, crit.arcs), crit)
        gamma = crit.cyclicity
        for t in range(gamma + 1):
            assert residue(t) >> n * n == 0 and residue(t) is residue(t + gamma)
            assert all(unpack_bits(residue(t), n)[i] == 0 for i in range(n) if i not in crit.nodes)
        for comp in crit.scc.components:
            nodes = sorted(comp.nodes)
            rows = [[0 if (i, j) in crit.arcs else None for j in nodes] for i in nodes]
            triple = build_csr(MaxPlusMatrix(rows))
            assert triple.gamma == comp.cyclicity and triple._d == 1
            for t in range(comp.cyclicity + 1):
                masks = [sum(1 << j for j, x in zip(nodes, row) if x is not None) for row in csr._residue(triple, t)]
                assert [unpack_bits(residue(t), n)[i] for i in nodes] == masks
            kinds["components"] += 1
            kinds["gamma > 1"] += comp.cyclicity > 1
    assert kinds["components"] >= 300 and kinds["gamma > 1"] >= 50, kinds


def _planted_critical(rng, n):
    """A random matrix, n nodes, whose critical graph is planted: one to
    three blocks, each a cycle of 0 arcs through its nodes in a random
    order plus random 0 arcs from one cyclic class to the next, so each
    component's cyclicity is a multiple of a random divisor gamma of its
    size; every other entry is negative or -inf."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
    entries = {}
    for block in (order[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n])):
        s = len(block)
        gamma = rng.choice([d for d in range(1, s + 1) if s % d == 0])
        for p, u in enumerate(block):
            entries[(u, block[(p + 1) % s])] = 0
            for q, v in enumerate(block):
                if (q - p - 1) % gamma == 0 and rng.random() < 0.3:
                    entries[(u, v)] = 0
    for i in range(n):
        for j in range(n):
            if (i, j) not in entries and rng.random() < 0.3:
                entries[(i, j)] = -Fraction(rng.randint(1, 6), rng.choice((1, 2)))
    return from_entries(n, entries)


def test_the_bit_row_index_matches_the_int_kernel():
    # csr._boolean_index against oracles.boolean_index_int on the
    # critical graphs of random matrices, n <= 12, and of every DM and
    # Wielandt skeleton up to n = 12
    rng = random.Random(2125)
    kinds = Counter()
    for k in range(660):
        n = rng.randint(1, 12)
        a = (_planted_critical, _binary, random_matrix)[k % 3](rng, n, *((rng.choice((0.2, 0.4)),) if k % 3 else ()))
        crit = spectrum(a).crit
        if crit is None:
            continue
        assert _boolean_index(crit) == boolean_index_int(crit), render_matrix(a)
        kinds["critical graphs"] += 1
        kinds["several components"] += len(crit.scc.components) > 1
        kinds["gamma > 1"] += any(comp.cyclicity > 1 for comp in crit.scc.components)
    assert kinds["critical graphs"] >= 500 and kinds["several components"] >= 150 and kinds["gamma > 1"] >= 150, kinds
    skeletons = [dm_skeleton(n, g) for n in range(1, 13) for g in range(1, n + 1)]
    skeletons += [wielandt_skeleton(n) for n in range(2, 13)]
    for a in skeletons:
        crit = critical_graph(a)
        assert _boolean_index(crit) == boolean_index_int(crit), render_matrix(a)



def test_the_packed_bit_product_matches_the_bit_row_reference():
    # csr._bit_mul on two 0/1 matrices packed in one int each against the
    # product on lists of bit rows (oracles.bit_mul_rows), m = 1..70, so
    # the packed ints cross many 30-bit limbs and, from m = 31 on, a row
    # does too; densities 0 to 1, with random rows forced empty or full
    rng = random.Random(2141)
    kinds = Counter()
    for m in range(1, 71):
        full = (1 << m) - 1
        for _ in range(6):
            pair = []
            for _ in range(2):
                density = rng.choice((0.0, 0.05, 0.3, 0.7, 1.0))
                rows = [sum(1 << j for j in range(m) if rng.random() < density) for _ in range(m)]
                for i in rng.sample(range(m), rng.randint(0, m // 3 + 1)):
                    rows[i] = rng.choice((0, full))
                pair.append(rows)
            x, y = pair
            assert csr._bit_mul(m, pack_bits(x, m), pack_bits(y, m)) == pack_bits(bit_mul_rows(x, y), m), (m, x, y)
            kinds["empty row"] += 0 in x + y
            kinds["full row"] += full in x + y
            kinds["m > 30"] += m > 30
    assert min(kinds.values()) >= 150, kinds


def _planted_crit_graph(rng, m):
    """A critical graph on m nodes with node m - 1 in it: one to three
    blocks of random nodes, each a cycle through its nodes in a random
    order plus random arcs from one cyclic class to the next, as in
    _planted_critical, so each component's cyclicity is a multiple of a
    random divisor gamma of its size; one to three such arcs, or an
    eighth of them, so the index ranges up to about the square of a
    block's size.  The other nodes lie off the graph."""
    nodes = [m - 1, *rng.sample(range(m - 1), rng.randint(0, m - 1))]
    rng.shuffle(nodes)
    cuts = sorted(rng.sample(range(1, len(nodes)), min(len(nodes) - 1, rng.randint(0, 2))))
    arcs, blocks = set(), []
    for block in (nodes[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(nodes)])):
        s = len(block)
        gamma = rng.choice([d for d in range(1, s + 1) if s % d == 0])
        arcs.update((u, block[(p + 1) % s]) for p, u in enumerate(block))
        chords = [(u, v) for p, u in enumerate(block) for q, v in enumerate(block) if (q - p - 1) % gamma == 0]
        arcs.update(rng.sample(chords, min(len(chords), rng.choice((1, 2, 3, len(chords) // 8)))))
        blocks.append(frozenset(block))
    scc = digraph._decomposition(digraph._successors(m, arcs), sorted(blocks, key=min))
    return spectral.CritGraph(
        frozenset(nodes), frozenset(arcs), scc, digraph.maximal_girth(scc), digraph.global_cyclicity(scc)
    )


def test_the_packed_index_matches_the_int_kernel_on_planted_critical_graphs():
    # csr._boolean_index against oracles.boolean_index_int on planted
    # critical graphs of one to three components, often of cyclicity > 1,
    # on m = 1..70 nodes, some of them off the graph (see
    # _planted_crit_graph)
    rng = random.Random(2143)
    kinds = Counter()
    for k in range(260):
        m = rng.randint(1, 20) if k % 13 else rng.randint(50, 70)
        crit = _planted_crit_graph(rng, m)
        assert _boolean_index(crit) == boolean_index_int(crit), (m, sorted(crit.arcs))
        kinds["several components, gamma > 1"] += len(crit.scc.components) > 1 and crit.cyclicity > 1
        kinds["nodes off the graph"] += len(crit.nodes) < m
        kinds["m >= 50"] += m >= 50
        kinds["m >= 50, several components"] += m >= 50 and len(crit.scc.components) > 1
    assert kinds["several components, gamma > 1"] >= 60 and kinds["nodes off the graph"] >= 150, kinds
    assert kinds["m >= 50"] >= 20 and kinds["m >= 50, several components"] >= 10, kinds

def _planted_tight(rng, n, shape):
    """(a, tight): random potentials p and a cycle mean lam, tight arcs
    lam + p[j] - p[i] on strongly connected blocks, each a shuffled
    Hamiltonian cycle plus random chords, and every other arc strictly
    below tight or -inf; the tight arcs are then the critical graph.
    "cover": one block on every node; "bipartite": the same with chords
    only between the cycle's two alternating classes (n even), so every
    cycle is even; "two blocks": two blocks that together cover every
    node; "one off": one block on all nodes but one; "cycles": two to
    four blocks that cover every node, each a bare cycle, with the other
    arcs only from a block to itself or a later one, so a is reducible
    (n >= 2)."""
    lam = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 7)))
    p = [Fraction(rng.randint(-30, 30), rng.choice((1, 2, 5))) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    if shape == "cycles":
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
        blocks = [order[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n])]
    else:
        cut = rng.randint(1, n - 1) if shape == "two blocks" else 1 if shape == "one off" else 0
        blocks = [order[:cut], order[cut:]] if shape == "two blocks" else [order[cut:]]
    block_of = {u: b for b, block in enumerate(blocks) for u in block}
    tight, density = set(), rng.choice((0.05, 0.15, 0.4))
    for block in blocks:
        tight.update((u, block[(k + 1) % len(block)]) for k, u in enumerate(block))
        tight.update(
            (u, v)
            for k, u in enumerate(block)
            for q, v in enumerate(block)
            if shape != "cycles" and (shape != "bipartite" or (k - q) % 2) and rng.random() < density
        )
    entries = {(i, j): lam + p[j] - p[i] for i, j in tight}
    for i in range(n):
        for j in range(n):
            if (i, j) not in tight and (shape != "cycles" or block_of[i] <= block_of[j]) and rng.random() < 0.5:
                entries[(i, j)] = lam + p[j] - p[i] - Fraction(rng.randint(1, 9), rng.choice((1, 3)))
    return from_entries(n, entries), tight


def test_analyze_reads_T1_and_T_off_a_primitive_covering_critical_graph(monkeypatch):
    # a critical graph that covers every node gives P^t <= Q_t, so analyze
    # runs no sweep but one search for T', the least t >= 0 with P^t =
    # Q_t: T1 = crit_rc_transient = max(T', 1), and T = T' on strongly
    # connected input (csr.analyze).  On one component of cyclicity 1, T'
    # is its exponent (csr._primitive_cover), read with no product and no
    # CSR triple; other covers (cyclicity > 1, two blocks, several bare
    # cycles with arcs only forward, so reducible) search the triple's int
    # rows, within 2*bit_length(gamma) + gamma + 2*bit_length(T')
    # products.  Planted inputs, n = 1..9, against the full ceiling scan,
    # the stepping search (T' on reducible covers too) and the sweep's
    # weak_threshold_T1; a node off the critical graph still sweeps
    calls, searched = Counter(), []
    int_mul, sweep, search = matrix._int_mul, csr._sweep, csr._transient
    monkeypatch.setattr(matrix, "_int_mul", lambda *args: calls.update(["_int_mul"]) or int_mul(*args))
    monkeypatch.setattr(csr, "_int_mul", matrix._int_mul)
    monkeypatch.setattr(csr, "_sweep", lambda *args: calls.update(["_sweep"]) or sweep(*args))
    monkeypatch.setattr(csr, "_transient", lambda *args: searched.append(search(*args)) or searched[-1])

    def check(a):
        calls.clear(), searched.clear()
        report = analyze(a)
        made, found, triple = dict(calls), list(searched), a._csr
        t1, rows, cols = weak_threshold_T1_full(a)
        assert (report.t1, report.crit_rc_transient) == (t1, max([*rows.values(), *cols.values()]))
        assert weak_threshold_T1(a).t1 == t1
        connected, covered = spectrum(a)._strongly_connected, len(spectrum(a).crit.nodes) == a.n
        stepped = transient_by_steps(normalized(a).raw(), report.gamma) if connected or covered else None
        assert report.t == (stepped if connected else None)
        if covered:
            assert "_sweep" not in made and found == [stepped], render_matrix(a)
            assert (report.t1, report.crit_rc_transient) == (max(stepped, 1),) * 2
        return report, made, triple

    def searched_on_int_rows(a, made, triple):
        gamma, t = triple.gamma, searched[0]
        assert made.get("_int_mul", 0) <= 2 * gamma.bit_length() + gamma + 2 * t.bit_length(), render_matrix(a)

    rng = random.Random(2531)
    kinds = Counter()
    shapes = ("cover",) * 7 + ("bipartite", "two blocks", "one off")
    for k in range(1000):
        shape = shapes[k % len(shapes)]
        n = rng.randint(2, 9) // 2 * 2 if shape == "bipartite" else rng.randint(1 if shape == "cover" else 2, 9)
        a, tight = _planted_tight(rng, n, shape)
        crit = spectrum(a).crit
        assert crit.arcs == tight, render_matrix(a)
        report, made, triple = check(a)
        if shape == "cover" and crit.cyclicity == 1:
            assert made == {} and triple is None, render_matrix(a)
            assert report.t == (0 if n == 1 else report.t1)
            kinds["exponent"] += 1
            kinds["exponent, n = 9"] += n == 9
        elif shape == "one off":
            assert made["_sweep"] == 1, render_matrix(a)
            kinds["one off, swept"] += 1
            kinds["cyclicity 2"] += crit.cyclicity == 2
        else:
            searched_on_int_rows(a, made, triple)
            kinds[f"{shape}, searched"] += 1
            kinds["cyclicity 2"] += crit.cyclicity == 2
    assert kinds["exponent"] >= 500 and kinds["exponent, n = 9"] >= 40, kinds
    assert kinds["cover, searched"] >= 20 and kinds["cyclicity 2"] >= 40, kinds
    assert min(kinds[shape] for shape in ("bipartite, searched", "two blocks, searched", "one off, swept")) >= 70, kinds
    for _ in range(300):
        a, tight = _planted_tight(rng, rng.randint(2, 9), "cycles")
        crit = spectrum(a).crit
        assert crit.arcs == tight and not spectrum(a)._strongly_connected, render_matrix(a)
        report, made, triple = check(a)
        searched_on_int_rows(a, made, triple)
        kinds["cycles"] += 1
        kinds["cycles, three or four"] += len(crit.scc.components) > 2
        kinds["cycles, T' > gamma"] += searched[0] > crit.cyclicity
    assert kinds["cycles, three or four"] >= 100 and kinds["cycles, T' > gamma"] >= 50, kinds
    # n = 1 with a loop: T = 0 and T1 = 1; the 2x2 zero matrix: T = T1 = 1
    for entries, expected in (({(0, 0): Fraction(-3, 2)}, (0, 1)), ({(i, j): 0 for i in range(2) for j in range(2)}, (1, 1))):
        a = from_entries(max(i for i, _ in entries) + 1, entries)
        report, made, triple = check(a)
        assert (report.t, report.t1, report.crit_rc_transient) == (*expected, 1) and made == {} and triple is None


def test_a_primitive_cover_reads_each_residue_as_m_with_no_product(monkeypatch):
    # every residue is read by one rule at the (sub)graph K it was carved
    # at (csr._residue): the K-rows of Q_gamma are M's own row objects,
    # every other K-row a shift of Q_(t-1), and the rows off K one product
    # whose left rows are exactly M's rows off K.  So reading t = 1..gamma
    # + 1 takes no product when K holds every node (a primitive cover, a
    # cover at gamma > 1, two components on every node) and gamma products
    # otherwise.  Planted inputs, n = 1..9 (see _planted_tight): the whole
    # critical graph, built alone and as a subgraph, and each component;
    # .c and .r against masked copies of a fresh M (oracles.masked_m),
    # residues at t = 1..gamma + 1 against the chain of products on them
    # (oracles.residue_by_chain), and against the walk oracle for n <= 5
    int_mul, lefts = matrix._int_mul, []
    monkeypatch.setattr(csr, "_int_mul", lambda *args: lefts.append(args[0]) or int_mul(*args))
    rng = random.Random(2626)
    kinds = Counter()
    shapes = ("cover",) * 4 + ("bipartite", "two blocks", "one off")
    for k_input in range(420):
        shape = shapes[k_input % len(shapes)]
        n = rng.randint(2, 9) // 2 * 2 if shape == "bipartite" else rng.randint(1 if shape == "cover" else 2, 9)
        a, _ = _planted_tight(rng, n, shape)
        sp = spectrum(a)
        lam, d = sp.lam.value, sp._d
        an = scalar_times(negate(sp.lam), a)
        parts = [(sp.crit, lambda: build_csr(a)), (sp.crit, lambda: build_csr(a, sp.crit))]
        parts += [(k, lambda k=k: build_csr(a, k)) for k in critical_components(sp.crit)]
        for k, build in parts:
            a._csr = None
            triple = build()
            c, r = masked_m(sp, k)
            assert triple.c == MaxPlusMatrix._from_ints(d, c) and triple.r == MaxPlusMatrix._from_ints(d, r)
            off = [i for i in range(n) if i not in k.nodes]
            lefts.clear()
            for t in range(1, k.cyclicity + 2):
                expected = residue_by_chain(sp, k, t)
                residue = csr._residue(triple, t)
                assert residue == expected, render_matrix(a)
                shifted = [[None if x is None else Fraction(x, d) + t * lam for x in row] for row in expected]
                assert csr_at(triple, t).raw() == shifted
                shared = [residue[i] is triple._m[i] for i in range(n)]
                assert shared == [i in k.nodes and t % k.cyclicity == 0 for i in range(n)], render_matrix(a)
                if n <= 5:
                    walks = csr_walk_oracle(an, k.nodes, k.cyclicity, t, k.cyclicity * n + n)
                    assert csr_at(triple, t).raw() == [[None if x is None else x + t * lam for x in row] for row in walks]
            assert len(lefts) == (k.cyclicity if off else 0), render_matrix(a)
            for left in lefts:
                assert len(left) == len(off) and all(x is triple._m[i] for i, x in zip(off, left)), render_matrix(a)
            if csr._primitive_cover(k, n):
                kinds["primitive cover"] += 1
            elif len(sp.crit.scc.components) == 2:
                kinds["two components" if off else "two components on every node"] += 1
            else:
                kinds["one node off" if off else "cover, cyclicity > 1"] += 1
    assert kinds["primitive cover"] >= 300 and min(kinds.values()) >= 60, kinds


def test_residues_from_c_r_and_the_recurrence_match_the_chain():
    # every residue against the chain C (S - lambda)^t R on masked copies of
    # a fresh M (oracles.residue_by_chain), at every t = 1..2 gamma + 1
    # read in shuffled order, and csr_at against the walk oracle for n <=
    # 5: the whole critical graph and each component K, on random
    # irreducible and reducible matrices, n <= 8, a loop beside a longer
    # cycle and planted pairs of blocks, whose components often differ in
    # cyclicity.  The two halves of csr._residue's rule, each on its own:
    # a row of Q_t at a node i of K is M's row at t = 0 (mod gamma), and
    # P(i, s) + row s of Q_(t-1) for every successor s of i in K, not only
    # the one the rule reads; every other row is the max over c in K of
    # M(i, c) + Q_t(c, .), in plain loops.  At gamma = 1 the whole
    # triple's M is the spectrum's closure itself
    rng = random.Random(2828)
    inputs = [random_irreducible(rng, rng.randint(1, 8)) for _ in range(120)]
    inputs += [random_reducible(rng, rng.randint(2, 8)) for _ in range(120)]
    inputs += [*_loop_beside_a_cycle(40), *(_planted_tight(rng, rng.randint(2, 8), "two blocks")[0] for _ in range(60))]
    kinds = Counter()
    for a in inputs:
        sp, n = spectrum(a), a.n
        if sp.crit is None:
            continue
        kinds["irreducible" if sp._strongly_connected else "reducible"] += 1
        components = critical_components(sp.crit)
        kinds["components of different cyclicities"] += len({k.cyclicity for k in components}) > 1
        kinds["gamma > 1"] += sp.crit.cyclicity > 1
        assert (build_csr(a)._m is sp._closure) == (sp.crit.cyclicity == 1)
        lam, d, an = sp.lam.value, sp._d, scalar_times(negate(sp.lam), a)
        for k, triple in [(sp.crit, build_csr(a)), *((k, build_csr(a, k)) for k in components)]:
            ts = list(range(1, 2 * k.cyclicity + 2))
            rng.shuffle(ts)
            c, r = masked_m(sp, k)
            for t in ts:
                q, before = csr._residue(triple, t), csr._residue(triple, t - 1)
                assert q == residue_by_chain(sp, k, t), (render_matrix(a), t)
                for i, j in k.arcs:
                    assert q[i] == [None if x is None else x + sp._norm[i][j] for x in before[j]], (render_matrix(a), t)
                    kinds["K-rows shifted along a second successor"] += any(i == u and j > v for u, v in k.arcs)
                for i in range(n):
                    if i in k.nodes:
                        assert t % k.cyclicity or q[i] == r[i], (render_matrix(a), t)
                        continue
                    row = [None] * n
                    for h in k.nodes:
                        if c[i][h] is not None:
                            for j in range(n):
                                if q[h][j] is not None and (row[j] is None or c[i][h] + q[h][j] > row[j]):
                                    row[j] = c[i][h] + q[h][j]
                    assert q[i] == row, (render_matrix(a), t)
                    kinds["rows off K"] += 1
                if n <= 5:
                    walks = csr_walk_oracle(an, k.nodes, k.cyclicity, t, k.cyclicity * n + n)
                    assert csr_at(triple, t).raw() == [[None if x is None else x + t * lam for x in row] for row in walks]
    assert sum(kinds[kind] for kind in ("irreducible", "reducible")) >= 300, kinds
    assert min(kinds.values()) >= 40, kinds



def _sub_cover(rng, crit, n):
    """A subgraph of crit that still covers all n nodes as one component:
    crit's arcs in random order, each dropped with probability 0.8 when
    some arc is left and every node still reaches node 0 and is reached
    from it.  Its
    cyclicity is a multiple of crit's, often a larger one."""
    arcs = set(crit.arcs)
    for arc in rng.sample(sorted(arcs), len(arcs)):
        if rng.random() < 0.8:
            arcs.discard(arc)
            if not arcs or any(len(_reached(n, pairs)) < n for pairs in (arcs, {(j, i) for i, j in arcs})):
                arcs.add(arc)
    scc = digraph._decomposition(digraph._successors(n, arcs), [frozenset(range(n))])
    return spectral.CritGraph(frozenset(range(n)), frozenset(arcs), scc, scc.components[0].girth, scc.components[0].cyclicity)


def _reached(n, arcs):
    """The nodes that walks along arcs reach from node 0."""
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [j for i, j in arcs if i in frontier and j not in seen]
        seen.update(frontier)
    return seen


def test_a_cover_shifts_each_residue_from_the_one_before(monkeypatch):
    # at a (sub)graph K that covers every node as one component, at any
    # cyclicity gamma, Q_gamma is M and Q_k is Q_(k-1) with row i replaced
    # by P(i, s) + row s of Q_(k-1), s a successor of i in K (the lemma on
    # K's rows of csr._residue), with no product: build_csr(a) and
    # build_csr(a, k), k a one-component cover of all nodes pruned from
    # the critical graph (_sub_cover), on planted covers, n = 1..9, at t =
    # 1..2 gamma + 1 read in shuffled order, against the chain of
    # products (oracles.residue_by_chain), and csr_at against the walk
    # oracle for n <= 5
    int_mul, calls = matrix._int_mul, Counter()
    monkeypatch.setattr(csr, "_int_mul", lambda *args: calls.update(["_int_mul"]) or int_mul(*args))
    rng = random.Random(2727)
    kinds = Counter()
    for k_input in range(240):
        shape = ("cover", "bipartite")[k_input % 2]
        n = rng.randint(2, 9) // 2 * 2 if shape == "bipartite" else rng.randint(1, 9)
        a, _ = _planted_tight(rng, n, shape)
        sp = spectrum(a)
        lam, an, sub = sp.lam.value, scalar_times(negate(sp.lam), a), _sub_cover(rng, sp.crit, n)
        for k, triple in ((sp.crit, build_csr(a)), (sub, build_csr(a, sub))):
            assert csr._cover(k, n) and triple.gamma == k.cyclicity, render_matrix(a)
            calls.clear()
            ts = list(range(1, 2 * k.cyclicity + 2))
            rng.shuffle(ts)
            for t in ts:
                assert csr._residue(triple, t) == residue_by_chain(sp, k, t), (render_matrix(a), sorted(k.arcs), t)
                if n <= 5:
                    walks = csr_walk_oracle(an, k.nodes, k.cyclicity, t, k.cyclicity * n + n)
                    assert csr_at(triple, t).raw() == [[None if x is None else x + t * lam for x in row] for row in walks]
            assert calls["_int_mul"] == 0, render_matrix(a)
            kinds["gamma > 1"] += k.cyclicity > 1
            kinds["gamma > 2"] += k.cyclicity > 2
            kinds["n <= 5, gamma > 1"] += n <= 5 and k.cyclicity > 1
        kinds["subgraph of a larger cyclicity"] += sub.cyclicity > sp.crit.cyclicity
    assert kinds["gamma > 2"] >= 60 and min(kinds.values()) >= 40, kinds

def test_rows_a_covering_triple_shares_are_never_written():
    # at cyclicity 1, M is the spectrum's closure and, on a primitive
    # cover, every row of every residue is M's row (see the tests above):
    # reading .c, .r, .s and csr_at, both sweeps, the ceiling check, the
    # test at t = 1 and handing the triple over at a scale factor of 1 and
    # of 3 leave them, and the spectrum's closure, as they were.  The
    # triple handed over holds as M the closure of the spectrum it is
    # handed with at cyclicity 1, and new rows above it, the source's
    # times the factor; it holds no residue, each residue it reads is the
    # source's times the factor, and reading them leaves its spectrum's
    # closure as it was.  Planted covers and generated instances
    rng = random.Random(2627)
    inputs = [_planted_tight(rng, rng.randint(1, 8), "cover")[0] for _ in range(60)]
    inputs += [_planted_tight(rng, rng.randint(1, 4) * 2, "bipartite")[0] for _ in range(20)]
    inputs += [generate_dm(n, g, 3) for n in range(3, 9) for g in range(2, n) if gcd(g, n) == 1]
    inputs += [generate_wielandt(n, 3, case=case) for n in range(2, 9) for case in ("n-1", "n")]
    kinds = Counter()
    for a in inputs:
        a = MaxPlusMatrix._from_raw(a.raw())
        sp, triple = spectrum(a), build_csr(a)
        assert (triple._m is sp._closure) == (triple.gamma == 1)
        shared = all(x is y for x, y in zip(csr._residue(triple, 1), triple._m))
        kinds["residue holds M's rows" if shared else "residue computed"] += 1
        for t in range(2, triple.gamma + 1):
            csr._residue(triple, t)
        snapshot = [copy.deepcopy(x) for x in (triple._m, triple._residues, sp._closure, a._rows)]
        for t in (1, 2, 3, triple.gamma + 1, 7):
            assert triple.c.raw() == triple.r.raw() and triple.s.n == csr_at(triple, t).n == a.n
        csr._sweep(triple)
        if sp._strongly_connected:
            csr._sweep(triple, True)
        csr._t1_at_ceiling(a, csr._ceiling(triple))
        csr._below_csr_at_one(triple, [(i, j, -(10**6)) for i in range(a.n) for j in range(a.n)], 1)
        for f in (1, 3):
            b = MaxPlusMatrix._from_raw(a.raw())
            b._spectrum = dataclasses.replace(sp, _d=f * sp._d, _norm=_times(sp._norm, f), _closure=_times(sp._closure, f))
            csr._inherit_triple(b, triple)
            held = b._csr
            assert held._m is not triple._m and held._m == _times(triple._m, f)
            assert (held._m is b._spectrum._closure) == (triple.gamma == 1) and held._residues == {}
            closure = copy.deepcopy(b._spectrum._closure)
            for t in range(1, triple.gamma + 1):
                assert csr._residue(held, t) == _times(csr._residue(triple, t), f), render_matrix(a)
            assert b._spectrum._closure == closure and held._m == _times(triple._m, f), render_matrix(a)
        assert [triple._m, triple._residues, sp._closure, a._rows] == snapshot, render_matrix(a)
    assert kinds["residue holds M's rows"] >= 50 and kinds["residue computed"] >= 20, kinds


def _times(rows, f):
    return [[None if x is None else x * f for x in row] for row in rows]


def test_a_covering_candidate_holds_its_skeletons_rows_as_one_list():
    # a generated candidate whose critical graph covers every node as one
    # component of cyclicity 1 holds its spectrum's closure as M, and its
    # residue at t = 1 holds that list's own rows; above cyclicity 1 M is
    # a list of its own.  What it holds equals a fresh computation
    generated = [generate_dm(n, g, seed) for n in range(3, 10) for g in range(2, n) if gcd(g, n) == 1 for seed in range(2)]
    generated += [generate_wielandt(n, seed, case=case) for n in range(2, 10) for case in ("n-1", "n") for seed in range(2)]
    kinds = Counter()
    for a in generated:
        crit = a._csr.crit
        if len(crit.nodes) < a.n or len(crit.scc.components) > 1:
            kinds["no cover"] += 1
            continue
        if csr._primitive_cover(crit, a.n):
            residue = csr._residue(a._csr, 1)
            assert a._csr._m is a._spectrum._closure, render_matrix(a)
            assert len(residue) == a.n and all(x is y for x, y in zip(residue, a._csr._m)), render_matrix(a)
            kinds["primitive cover"] += 1
        else:
            assert a._csr._m is not a._spectrum._closure, render_matrix(a)
            kinds["cover, cyclicity > 1"] += 1
        assert memo_differences(a) == [], render_matrix(a)
    assert kinds["primitive cover"] >= 50 and kinds["cover, cyclicity > 1"] >= 10, kinds


def test_s_holds_the_entries_of_a_on_the_arcs_it_was_carved_at(rng):
    # S is read off the triple's rows of S - lambda; it equals a's entries
    # on the arcs of the critical graph, or of the subgraph it was built at
    kinds = Counter()
    for _ in range(150):
        a = random_matrix(rng, rng.randint(1, 6))
        crit = spectrum(a).crit
        if crit is None:
            assert build_csr(a).s == zeros(a.n)
            kinds["acyclic"] += 1
            continue
        for k in [None, *critical_components(crit)]:
            arcs = crit.arcs if k is None else k.arcs
            expected = [[x if (i, j) in arcs else None for j, x in enumerate(row)] for i, row in enumerate(a.raw())]
            assert build_csr(MaxPlusMatrix(a.raw()), k).s.raw() == expected, render_matrix(a)
            kinds["whole graph" if k is None else "component"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_a_deadline_fails_a_loop_that_never_ends():
    # conftest's deadline, which every test runs under, and the nested one
    # the n = 1 tests below add: the loop fails, and the outer deadline is
    # armed again afterwards with what is left of it
    if not hasattr(signal, "setitimer"):
        return
    with pytest.raises(TimeoutError, match="no answer within 0.05 s"):
        with deadline(0.05):
            while True:
                pass
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= PER_TEST_SECONDS


@pytest.mark.parametrize("entry", [3, Fraction(-1, 2)])
def test_one_by_one_input_with_a_loop_answers_at_once(entry):
    # n = 1 has the ceiling c = 0 below t1 = 1: a sweep that tests up to c
    # and stops only once no row fails would never stop
    a = MaxPlusMatrix([[entry]])
    with deadline(5):
        wx = weak_threshold_T1(a)
        assert (wx.t1, wx.rows, wx.cols) == (1, {0: 1}, {0: 1})
        assert crit_row_col_profile(a) == (1, {0: 1}, {0: 1})
        report = analyze(a)
        assert (report.t, report.t1, report.g, report.gamma, report.wi, report.dm) == (0, 1, 1, 1, 0, 0)
        assert report.crit_rc_transient == 1 and not (report.attains_dm or report.attains_wiel)
        assert transient_T(a) == 0
        assert not extremal.verify_crit_rc_dm(a)  # the crit-rc transient 1 is not DM(1, 1) = 0


def test_one_by_one_input_without_a_loop_answers_at_once():
    a = MaxPlusMatrix([[None]])
    with deadline(5):
        wx = weak_threshold_T1(a)
        assert (wx.t1, wx.rows, wx.cols) == (1, {}, {})
        with pytest.raises(ValueError, match="no critical rows or columns: the digraph is acyclic"):
            crit_row_col_profile(a)
        report = analyze(a)
        assert (report.t, report.t1, report.g, report.gamma, report.wi, report.dm) == (None, 1, None, None, 0, None)
        assert report.crit_rc_transient is None
        with pytest.raises(ValueError, match="transient undefined: single node without a loop"):
            transient_T(a)


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
