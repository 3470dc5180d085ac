import random
import re
import sys
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from maxplus import (
    DiagonalScaling,
    MaxPlusMatrix,
    build_csr,
    csr_at,
    from_entries,
    identity,
    kleene_star,
    mat_mul,
    mat_oplus,
    mat_power,
    max_cycle_mean,
    parse_matrix,
    parse_scalar,
    render_matrix,
    scale,
    strictly_dominated_by,
    zeros,
)
from maxplus import MaxPlusScalar, matrix, scalar_times
from conftest import normalized, random_cyclic_matrix, random_matrix, transpose

from oracles import (
    fraction_dominated,
    fraction_mul,
    fraction_parse,
    fraction_render,
    fraction_scale,
    fraction_star,
    walk_power,
)

N = None  # shorthand for -inf entries in literals


def M(rows):
    return MaxPlusMatrix(rows)


def test_mat_mul_identity_and_absorbing(rng):
    a = random_matrix(rng, 4)
    assert mat_mul(identity(4), a) == a
    assert mat_mul(a, identity(4)) == a
    assert mat_mul(a, zeros(4)) == zeros(4)


def test_mat_mul_hand_expansion():
    a = M([[N, 0], [0, N]])
    assert mat_mul(a, a) == M([[0, N], [N, 0]])


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(identity(2), identity(3))


def test_mat_power_one_is_a(rng):
    a = random_matrix(rng, 3)
    assert mat_power(a, 1) == a
    with pytest.raises(ValueError):
        mat_power(a, 0)


@pytest.mark.parametrize("t", [Fraction(3, 2), Fraction(2), True, 2.0, "2", None])
def test_powers_need_an_int_exponent(t):
    # mat_power failed on `&` or silently took a bool; csr_at on a list index
    a = parse_matrix("2\n0 1\n-1 -inf\n")
    with pytest.raises(TypeError, match="mat_power needs an int t"):
        mat_power(a, t)
    with pytest.raises(TypeError, match="csr_at needs an int t"):
        csr_at(build_csr(a), t)


def test_mat_power_matches_walk_dp_oracle(rng):
    for n in (2, 3, 4, 5):
        for _ in range(4):
            a = random_matrix(rng, n)
            for t in (1, 2, 3, 5, 8, 13, 20):
                assert mat_power(a, t).raw() == walk_power(a, t)


def test_power_entry_enumerates_length_three_walks():
    # 2x2 with zero off-diagonal: the best 1->1 walk of length 3 takes one loop.
    a = M([[-1, 0], [0, -2]])
    assert mat_power(a, 3)[0, 0].value == Fraction(-1)


def test_mat_power_squaring_equals_naive(rng):
    a = random_matrix(rng, 4)
    acc = a
    for t in range(2, 33):
        acc = mat_mul(acc, a)
        assert mat_power(a, t) == acc


def test_mat_mul_associative(rng):
    for _ in range(10):
        a, b, c = (random_matrix(rng, 4) for _ in range(3))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_kleene_star_of_zero_matrix_is_identity():
    assert kleene_star(zeros(3)) == identity(3)


def test_kleene_star_hand_example():
    a = M([[N, -1], [-1, N]])
    assert kleene_star(a) == M([[0, -1], [-1, 0]])


def test_kleene_star_idempotent_and_fixed_point(rng):
    for _ in range(10):
        a = normalized(random_cyclic_matrix(rng, 4))
        star = kleene_star(a)
        assert mat_mul(star, star) == star
        assert mat_oplus(identity(4), mat_mul(a, star)) == star


def test_kleene_star_rejects_positive_cycle():
    with pytest.raises(ValueError):
        kleene_star(M([[1]]))
    with pytest.raises(ValueError):
        kleene_star(M([[N, 2], [-1, N]]))


def test_scale_identity_and_inverse(rng):
    a = random_matrix(rng, 4)
    d0 = DiagonalScaling([0, 0, 0, 0])
    assert scale(a, d0) == a
    d = DiagonalScaling([Fraction(1, 2), -3, 2, Fraction(7, 3)])
    assert scale(scale(a, d), d.inverse()) == a


def test_scale_fixes_diagonal(rng):
    a = random_matrix(rng, 4)
    d = DiagonalScaling([1, -2, Fraction(3, 2), 0])
    b = scale(a, d)
    for i in range(4):
        assert b[i, i] == a[i, i]


def test_diagonal_scaling_rejects_bottom():
    with pytest.raises(ValueError):
        DiagonalScaling([0, None])


def test_strict_domination():
    z = zeros(3)
    b = M([[1, N, 0], [N, N, N], [0, 0, 0]])
    assert strictly_dominated_by(z, b)
    a = M([[0, N, N], [N, N, N], [N, N, N]])
    assert not strictly_dominated_by(a, a)  # finite equality forbidden
    assert strictly_dominated_by(M([[N, -1]] + [[N, N]]), M([[N, 0], [N, N]]))
    assert not strictly_dominated_by(M([[N, 0], [N, N]]), M([[N, -1], [N, N]]))


def test_mat_power_commutes_with_transpose(rng):
    a = random_matrix(rng, 4)
    for m in (1, 2, 3, 7, 10):
        assert mat_power(transpose(a), m) == transpose(mat_power(a, m))


def test_mat_oplus_with_zero(rng):
    a = random_matrix(rng, 3)
    assert mat_oplus(a, zeros(3)) == a
    assert mat_oplus(a, a) == a


def test_text_roundtrip(rng):
    for n in (1, 2, 5):
        a = random_matrix(rng, n)
        text = render_matrix(a)
        assert parse_matrix(text) == a
        assert render_matrix(parse_matrix(text)) == text


def test_parse_accepts_star_tokens_and_trailing_junk():
    a = parse_matrix("2\n* 1/2\n-3 *\n{\"provenance\": true}\n")
    assert a == M([[N, Fraction(1, 2)], [-3, N]])


@pytest.mark.parametrize(
    "bad",
    ["", "0\n", "2\n1 2\n", "2\n1 2 3\n4 5\n", "x\n1\n"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_matrix(bad)


ODD_TOKENS = [
    pytest.param("+3", id="plus-sign"),
    pytest.param("1.5", id="decimal"),
    pytest.param("1e3", id="exponent"),
    pytest.param("1_0", id="underscore"),
    pytest.param("\u0663", id="arabic-indic-digit"),
    pytest.param("3/0", id="zero-denominator"),
    pytest.param("3/00", id="zero-denominator-two-digits"),
    pytest.param("-0", id="negative-zero"),
    pytest.param("-6/04", id="unreduced"),
    pytest.param("3/-4", id="negative-denominator"),
    pytest.param("*", id="star"),
    pytest.param("-inf", id="minus-inf"),
    pytest.param("-", id="bare-minus"),
    pytest.param("5" * 5000, id="5000-digits"),
    pytest.param("-" + "7" * 5000 + "/3", id="5000-digit-numerator"),
]


@pytest.mark.parametrize("token", ODD_TOKENS)
def test_parse_reads_a_token_as_parse_scalar_does(token):
    # parse_matrix reads each distinct token once; its values and its
    # errors must be those of parse_scalar on each token alone
    text = f"2\n{token} 1/2\n-3 {token}\n"
    try:
        value = parse_scalar(token).value
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            parse_matrix(text)
        assert str(err.value) == str(exc)
    else:
        assert parse_matrix(text).raw() == [[value, Fraction(1, 2)], [-3, value]]


PLAIN_TOKENS = ["0", "-0", "7", "-12", "007", "3/4", "-6/04", "0/5", "-0/7", "10/10", "9" * 4000, "-1/" + "3" * 4000]


def test_parse_reads_every_token_as_fraction_does(monkeypatch):
    # an ASCII p or p/q, p digits with an optional "-" and q nonzero, is
    # read by int alone; every other token goes through parse_scalar.
    # Either way the value is Fraction(token), or the error parse_scalar gives
    slow = []
    monkeypatch.setattr(matrix, "parse_scalar", lambda tok: slow.append(tok) or parse_scalar(tok))
    rng = random.Random(2116)
    corpus = PLAIN_TOKENS + [param.values[0] for param in ODD_TOKENS] + ["1/-0", "x", "--1", "1//2", "\u00b2", "/2", "2/"]
    for _ in range(500):
        sign, num = rng.choice(("", "-", "-", "+")), str(rng.randint(0, 10**rng.randint(1, 12))).zfill(rng.randint(1, 4))
        tail = rng.choice(("", "", f"/{rng.randint(0, 99)}", f"/0{rng.randint(1, 9)}", ".5", "e2", "/00"))
        corpus.append(sign + num + tail)
    kinds = Counter()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # int() refuses longer digit strings
    for token in corpus:
        plain = bool(re.fullmatch(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?", token))
        plain = plain and (limit == 0 or max(len(part.lstrip("-")) for part in token.split("/")) <= limit)
        slow.clear()
        try:
            want = None if token in ("-inf", "*") else Fraction(token)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError, match=f"^bad scalar token {re.escape(repr(token))}$"):
                parse_matrix(f"1\n{token}\n")
            kinds["refused"] += 1
        else:
            assert parse_matrix(f"1\n{token}\n").raw() == [[want]]
            kinds["read"] += 1
        assert slow == ([] if plain else [token]), token
        kinds["plain" if plain else "through parse_scalar"] += 1
    assert min(kinds.values()) >= 50, kinds
    text = "3\n" + "\n".join(" ".join(corpus[3 * k : 3 * k + 3]) for k in range(3)) + "\n"
    assert parse_matrix(text).raw() == [[Fraction(tok) for tok in corpus[3 * k : 3 * k + 3]] for k in range(3)]


def test_parse_reports_the_first_bad_token_in_reading_order():
    with pytest.raises(ValueError, match=r"^bad scalar token 'x'$"):
        parse_matrix("2\n1 x\ny x\n")


@pytest.mark.parametrize(
    "build, args, message",
    [
        pytest.param(from_entries, (2, {(-1, 0): 1}), "arc (-1,0) out of range for n=2", id="negative-row"),
        pytest.param(from_entries, (2, {(0, -1): 1}), "arc (0,-1) out of range for n=2", id="negative-column"),
        pytest.param(from_entries, (2, {(2, 0): 1}), "arc (2,0) out of range for n=2", id="row-past-n"),
        pytest.param(from_entries, (2, {(1, 2): 1}), "arc (1,2) out of range for n=2", id="column-past-n"),
        pytest.param(from_entries, (0, {}), "dimension must be >= 1, got 0", id="from_entries-n0"),
        pytest.param(zeros, (0,), "dimension must be >= 1, got 0", id="zeros-n0"),
        pytest.param(identity, (0,), "dimension must be >= 1, got 0", id="identity-n0"),
        pytest.param(identity, (-1,), "dimension must be >= 1, got -1", id="identity-negative-n"),
    ],
)
def test_builders_reject_shapes_the_constructor_forbids(build, args, message):
    # a negative index would write the row from the end, and n = 0 makes
    # a matrix MaxPlusMatrix itself rejects
    with pytest.raises(ValueError) as err:
        build(*args)
    assert str(err.value) == message


def test_dimension_one_is_legal():
    a = M([[Fraction(3, 2)]])
    assert mat_power(a, 4)[0, 0].value == 6
    assert max_cycle_mean(a).value == Fraction(3, 2)
    assert kleene_star(M([[-1]])) == identity(1)


MIXED_DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 11, 13, 25, 49)
LARGE_PRIMES = (999979, 999983, 1000003, 1000033, 1000037, 1000039)  # four or more put a scale past 64 bits


def _mixed_rows(rng, n, denominators=MIXED_DENOMINATORS):
    """Fraction-or-None rows with denominators drawn from denominators,
    and some multiples of 100."""
    return [
        [
            None if rng.random() < 0.3
            else Fraction(100 * rng.randint(-3, 3)) if rng.random() < 0.15
            else Fraction(rng.randint(-60, 60), rng.choice(denominators))
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def _token(rng, x, kinds):
    """A text form of x, a Fraction or None, picked at random among odd
    ones, and counted in kinds: '-inf' or '*'; str(x); unreduced, as 2/4;
    p/1, as 3/1; -0; 1e2."""
    if x is None:
        forms = {"-inf": "-inf", "*": "*"}
    else:
        k = rng.randint(2, 6)
        forms = {"plain": str(x), "unreduced": f"{x.numerator * k}/{x.denominator * k}"}
        if x.denominator == 1:
            forms["p/1"] = f"{x.numerator}/1"
            if x == 0:
                forms["-0"] = "-0"
            if x and x.numerator % 100 == 0:
                forms["1e2"] = f"{x.numerator // 100}e2"
    kind = rng.choice(sorted(forms))
    kinds[kind] += 1
    return forms[kind]


def test_int_rows_match_the_fraction_reference_on_mixed_denominators():
    # a matrix holds int rows over one least denominator; parse, render,
    # mat_mul, kleene_star, scale, strictly_dominated_by and equality
    # must give what the Fraction representation gave (oracles.fraction_*),
    # byte for byte where text is printed.  Random matrices, n 1..6, with
    # mixed coprime denominators, a third of them with large primes among
    # them, so that a result's scale is a product of large primes (see
    # matrix._least_scale), written with odd tokens: 2/4, -0, 3/1, 1e2,
    # -inf and *
    rng = random.Random(2237)
    kinds = Counter()
    for k in range(300):
        n = rng.randint(1, 6)
        denominators = MIXED_DENOMINATORS + LARGE_PRIMES if k % 3 == 2 else MIXED_DENOMINATORS
        x_rows = _mixed_rows(rng, n, denominators)
        y_rows = [row[:] for row in x_rows] if k % 5 == 0 else _mixed_rows(rng, n, denominators)
        texts = [f"{n}\n" + "\n".join(" ".join(_token(rng, v, kinds) for v in row) for row in rows) + "\n" for rows in (x_rows, y_rows)]
        a, b = map(parse_matrix, texts)
        ref_a, ref_b = map(fraction_parse, texts)
        # parse and render, and the least scale
        assert a.raw() == ref_a and b.raw() == ref_b
        assert render_matrix(a) == fraction_render(ref_a) and render_matrix(b) == fraction_render(ref_b)
        assert parse_matrix(render_matrix(a)) == a
        assert a._d == lcm(*(x.denominator for row in ref_a for x in row if x is not None))
        kinds["three or more denominators"] += len({x.denominator for row in ref_a for x in row if x is not None}) >= 3
        # equality and hashing
        assert (a == b) == (ref_a == ref_b) and MaxPlusMatrix(ref_a) == a and hash(MaxPlusMatrix(ref_a)) == hash(a)
        if a == b:
            assert hash(a) == hash(b)
            kinds["equal"] += 1
        # mat_mul, at the lcm of two scales, reduced to the least
        product, ref_product = mat_mul(a, b), fraction_mul(ref_a, ref_b)
        assert product.raw() == ref_product and product == MaxPlusMatrix(ref_product)
        assert render_matrix(product) == fraction_render(ref_product)
        kinds["product scale reduced"] += product._d < lcm(a._d, b._d)
        kinds["product scale reduced from past 64 bits"] += product._d < lcm(a._d, b._d) and lcm(a._d, b._d) >= 1 << 64
        # kleene_star, of a and of a shifted below 0
        for shift in (0, Fraction(-61, rng.choice(MIXED_DENOMINATORS))):
            c = scalar_times(MaxPlusScalar(shift), a)
            ref_c = [[None if x is None else x + shift for x in row] for row in ref_a]
            assert c == MaxPlusMatrix(ref_c)
            ref_star = fraction_star(ref_c)
            if ref_star is None:
                with pytest.raises(ValueError, match="diverges"):
                    kleene_star(c)
                kinds["star diverges"] += 1
            else:
                star = kleene_star(c)
                assert star.raw() == ref_star and star == MaxPlusMatrix(ref_star)
                kinds["star"] += 1
        # scale by potentials of other denominators
        potentials = [Fraction(rng.randint(-20, 20), rng.choice(MIXED_DENOMINATORS)) for _ in range(n)]
        scaled, ref_scaled = scale(a, DiagonalScaling(potentials)), fraction_scale(ref_a, potentials)
        assert scaled.raw() == ref_scaled and scaled == MaxPlusMatrix(ref_scaled)
        # strict domination: against b, and against a nudged by margins of every sign
        above = [
            [None if x is None or rng.random() < 0.05 else x + Fraction(rng.choice((-1, 0, 1, 2, 3)), rng.choice(MIXED_DENOMINATORS)) for x in row]
            for row in ref_a
        ]
        for other, ref_other in ((b, ref_b), (MaxPlusMatrix(above), above)):
            verdict = strictly_dominated_by(a, other)
            assert verdict == fraction_dominated(ref_a, ref_other)
            kinds[f"dominated {verdict}"] += 1
    assert min(kinds.values()) >= 20, kinds
