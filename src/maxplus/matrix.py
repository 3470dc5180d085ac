"""Dense square max-plus matrices with exact entries.

Multiplication, powers by repeated squaring, the Kleene star via an
all-pairs closure, diagonal scalings, the strict entrywise domination
order, and a bit-exact text format.  Matrices are immutable values;
every operation returns a fresh matrix.  So a matrix may keep what is
computed from it: `spectral.spectrum` and `csr.build_csr` store their
results in its two private slots, and a second call returns them; a
generated matrix gets its skeleton's there instead.

A matrix holds one scale d and rows of int-or-None, None encoding -inf:
d is the least common denominator of its finite entries, and each entry
x is held as the int x*d.  Sums and comparisons of the scaled ints are
those of the rationals, so nothing is rounded, and as d is the least,
two matrices are equal exactly when their n, d and rows are.  The
products and closures run on that exact integer kernel; an operation on
two matrices first brings both to the lcm of their scales, and every
result is reduced to its least d once (_from_ints).  parse_matrix reads
the text straight into the ints and render_matrix prints them with one
gcd an entry, so no Fraction is built between the two.  raw(),
indexing, entries() and the constructor from scalars are the Fraction
face, converted on each call.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import floordiv, mul
from typing import Iterable, Sequence

from .semiring import MaxPlusScalar, _check_exponent, as_scalar, negate, parse_scalar


class MaxPlusMatrix:
    """An n-by-n matrix of max-plus scalars, n >= 1."""

    __slots__ = ("n", "_d", "_rows", "_spectrum", "_csr")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        if n == 0:
            raise ValueError("dimension must be >= 1")
        raw = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            raw.append([as_scalar(x).value for x in row])
        self._set(*_ints_of(raw))

    def _set(self, d: int, rows: list[list]) -> None:
        self.n, self._d, self._rows = len(rows), d, rows
        self._spectrum = self._csr = None

    @classmethod
    def _from_raw(cls, raw: list[list]) -> "MaxPlusMatrix":
        """The matrix of Fraction-or-None rows raw."""
        return cls._from_ints(*_ints_of(raw))

    @classmethod
    def _from_ints(cls, d: int, rows: list[list]) -> "MaxPlusMatrix":
        """The matrix of int-or-None rows scaled by d >= 1, reduced to the
        least scale (see _least_scale).  Where d is the least already the
        matrix holds rows itself, so callers must not mutate them after;
        no code mutates a matrix's rows."""
        if d > 1:
            d, rows = _least_scale(d, rows)
        m = object.__new__(cls)
        m._set(d, rows)
        return m

    def raw(self) -> list[list]:
        """The entries as rows of Fraction-or-None, built on each call."""
        d = self._d
        return [[None if x is None else Fraction(x, d) for x in row] for row in self._rows]

    def __getitem__(self, ij: tuple[int, int]) -> MaxPlusScalar:
        i, j = ij
        x = self._rows[i][j]
        return MaxPlusScalar(None if x is None else Fraction(x, self._d))

    def entries(self) -> Iterable[tuple[int, int, MaxPlusScalar]]:
        for i, row in enumerate(self.raw()):
            for j, x in enumerate(row):
                yield i, j, MaxPlusScalar(x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaxPlusMatrix):
            return NotImplemented
        return self.n == other.n and self._d == other._d and self._rows == other._rows

    def __hash__(self):
        return hash((self._d, tuple(map(tuple, self._rows))))

    def __repr__(self) -> str:
        return f"MaxPlusMatrix.parse({render_matrix(self)!r})"


def _ints_of(raw: list[list]) -> tuple[int, list[list]]:
    """(d, rows) of Fraction-or-None rows: d the least common denominator
    of the finite entries, and each x replaced by x*d."""
    d = lcm(*{x.denominator for row in raw for x in row if x is not None})
    return d, [[None if x is None else x.numerator * (d // x.denominator) for x in row] for row in raw]


def _least_scale(d: int, rows: list[list]) -> tuple[int, list[list]]:
    """(e, the rows scaled by e), e the least scale of int-or-None rows
    scaled by d.

    Each entry x comes to lowest terms alone, x/d = (x/h)/(d/h) with
    h = gcd(x, d), and e is the lcm of the d/h.  d may be a product of
    many primes, where a running gcd over the entries would shrink from d
    only a few primes a step, and a division of every entry by d/e be
    long, both at a cost quadratic in the number of entries; here each
    entry is divided by its own h, near it in size, so every quotient is
    small."""
    finite = [x for row in rows for x in row if x is not None]
    common = list(map(gcd, finite, repeat(d)))
    dens = list(map(floordiv, repeat(d), common))
    e = lcm(*dens)
    if e == d:
        return d, rows
    reduced = map(mul, map(floordiv, finite, common), map(floordiv, repeat(e), dens))
    return e, [[None if x is None else next(reduced) for x in row] for row in rows]


def identity(n: int) -> MaxPlusMatrix:
    """Max-plus identity: 0 on the diagonal, -inf elsewhere."""
    return from_entries(n, {(i, i): 0 for i in range(n)})


def zeros(n: int) -> MaxPlusMatrix:
    """The all-(-inf) matrix, the additive zero."""
    return from_entries(n, {})


def _check_dims(a: MaxPlusMatrix, b: MaxPlusMatrix) -> None:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


def _common(a: MaxPlusMatrix, b: MaxPlusMatrix) -> tuple[int, list[list], list[list]]:
    """(d, a's rows, b's rows), both scaled by d, the lcm of their scales."""
    d = lcm(a._d, b._d)
    return d, _rescaled(a, d), _rescaled(b, d)


def _rescaled(m: MaxPlusMatrix, d: int) -> list[list]:
    """m's rows scaled by d, a multiple of m's scale: at m's own scale,
    its own rows, to be read only."""
    f = d // m._d
    return m._rows if f == 1 else [[None if x is None else x * f for x in row] for row in m._rows]


def _finite_entries(rows: list[list]) -> list[list]:
    """Each int-or-None row as the (column, value) pairs of its finite entries."""
    return [[(j, y) for j, y in enumerate(row) if y is not None] for row in rows]


def _int_mul(arows: list[list], bfinite: list[list], starts: list[list] | None = None) -> list[list]:
    """Max-plus product of int-or-None rows and a right factor given by
    _finite_entries; -inf entries of a left row are skipped.  With starts,
    one int-or-None row per left row, each product row accumulates onto a
    copy of its start row rather than onto -inf: it is their max-plus sum."""
    n = len(bfinite)
    out = []
    for arow, start in zip(arows, repeat([None] * n) if starts is None else starts):
        best = start[:]
        for x, finite in zip(arow, bfinite):
            if x is None:
                continue
            for j, y in finite:
                s = x + y
                b = best[j]
                if b is None or s > b:
                    best[j] = s
        out.append(best)
    return out


def _int_closure(rows: list[list]) -> None:
    """Floyd-Warshall closure of int-or-None rows, in place.

    With no positive cycle, entry (i, j) ends as the best weight of a
    walk of length >= 1 from i to j.  The finite entries of pivot row k
    are read once, at the start of pivot k, as in textbook
    Floyd-Warshall, and looped over as in _int_mul.  Reading row k live
    gives the same rows: during pivot k, row k changes only through
    d[k][k] + d[k][j], and d[k][k] <= 0 when there is no positive cycle.
    With one, every entry is still the weight of a walk and never drops,
    so a node on the cycle still ends with a positive diagonal entry,
    which kleene_star rejects.
    """
    for k, row in enumerate(rows):
        dk = [(j, x) for j, x in enumerate(row) if x is not None]
        for di in rows:
            dik = di[k]
            if dik is None:
                continue
            for j, dkj in dk:
                s = dik + dkj
                b = di[j]
                if b is None or s > b:
                    di[j] = s


def _int_power(rows: list[list], t: int) -> list[list]:
    """int-or-None rows P to the t-th power, t >= 1, by repeated squaring.

    The bits of t are read from the leading one down: each later bit
    squares the power so far, and a set bit then multiplies it by P.  So
    every product that is not a squaring takes P itself as its right
    factor, not a square of P.  There are bit_length(t) - 1 squarings
    and popcount(t) - 1 products by P, as many as squaring from the
    trailing bit takes, and the same result.  P's finite entries are
    listed once, by the first squaring, and at t = 1 not at all.
    """
    result, step = rows, None
    for bit in bin(t)[3:]:
        entries = _finite_entries(result)
        step = step or entries  # the first squaring's are P's
        result = _int_mul(result, entries)
        if bit == "1":
            result = _int_mul(result, step)
    return result


def mat_mul(a: MaxPlusMatrix, b: MaxPlusMatrix) -> MaxPlusMatrix:
    """Exact max-plus product: (ab)_ij = max_k (a_ik + b_kj)."""
    _check_dims(a, b)
    d, arows, brows = _common(a, b)
    return MaxPlusMatrix._from_ints(d, _int_mul(arows, _finite_entries(brows)))


def mat_power(a: MaxPlusMatrix, t: int) -> MaxPlusMatrix:
    """a to the t-th power, t >= 1, by repeated squaring from the leading
    bit of t (see _int_power)."""
    _check_exponent("mat_power", t)
    if t < 1:
        raise ValueError(f"mat_power needs t >= 1, got {t}")
    return MaxPlusMatrix._from_ints(a._d, _int_power(a._rows, t))


def mat_oplus(a: MaxPlusMatrix, b: MaxPlusMatrix) -> MaxPlusMatrix:
    """Entrywise max of two matrices."""
    _check_dims(a, b)
    d, arows, brows = _common(a, b)
    out = []
    for ra, rb in zip(arows, brows):
        out.append([y if x is None or y is not None and y > x else x for x, y in zip(ra, rb)])
    return MaxPlusMatrix._from_ints(d, out)


def scalar_times(alpha: MaxPlusScalar, a: MaxPlusMatrix) -> MaxPlusMatrix:
    """alpha tensor a: add alpha to every entry."""
    v = alpha.value
    if v is None:
        return zeros(a.n)
    d = lcm(a._d, v.denominator)
    shift = v.numerator * (d // v.denominator)
    return MaxPlusMatrix._from_ints(d, [[None if x is None else x + shift for x in row] for row in _rescaled(a, d)])


def kleene_star(a: MaxPlusMatrix) -> MaxPlusMatrix:
    """I + a + a^2 + ... + a^(n-1), via O(n^3) all-pairs closure.

    Defined only when the maximum cycle mean is <= 0; a positive cycle
    makes the star diverge and is rejected.
    """
    rows = [row[:] for row in a._rows]
    _int_closure(rows)
    for i, row in enumerate(rows):
        if row[i] is not None and row[i] > 0:
            raise ValueError("kleene_star diverges: digraph has a positive-weight cycle")
        row[i] = 0
    return MaxPlusMatrix._from_ints(a._d, rows)


class DiagonalScaling:
    """An invertible diagonal scaling, i.e. a finite potential per node."""

    __slots__ = ("d",)

    def __init__(self, d: Sequence):
        ds = tuple(as_scalar(x) for x in d)
        if any(x.is_bottom for x in ds):
            raise ValueError("diagonal scaling entries must be finite")
        self.d = ds

    def __len__(self) -> int:
        return len(self.d)

    def inverse(self) -> "DiagonalScaling":
        return DiagonalScaling([negate(x) for x in self.d])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagonalScaling):
            return NotImplemented
        return self.d == other.d

    def __repr__(self) -> str:
        return f"DiagonalScaling([{', '.join(map(str, self.d))}])"


def scale(a: MaxPlusMatrix, d: DiagonalScaling) -> MaxPlusMatrix:
    """Conjugate by the diagonal: entry (i,j) becomes -d_i + a_ij + d_j."""
    if len(d) != a.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {len(d)}")
    vals = [x.value for x in d.d]
    e = lcm(a._d, *(v.denominator for v in vals))
    pot = [v.numerator * (e // v.denominator) for v in vals]
    out = [
        [None if x is None else x - pot[i] + pot[j] for j, x in enumerate(row)] for i, row in enumerate(_rescaled(a, e))
    ]
    return MaxPlusMatrix._from_ints(e, out)


def strictly_dominated_by(a: MaxPlusMatrix, b: MaxPlusMatrix) -> bool:
    """Entrywise a <= b with equality allowed only at -inf entries."""
    _check_dims(a, b)
    _, arows, brows = _common(a, b)
    for ra, rb in zip(arows, brows):
        for x, y in zip(ra, rb):
            if x is None:
                continue
            if y is None or x >= y:
                return False
    return True


def _text(x: int | None, d: int) -> str:
    """The text of the entry x scaled by d: str(Fraction(x, d)), by one
    gcd, or -inf for None.  Every value the package prints goes through
    here (see _scalar_text).  A numerator or denominator with more digits
    than int's limit on a conversion to str (4300 by default, see
    semiring.parse_scalar) raises ValueError naming that limit, in place
    of Python's own message; the check is Python's, so it costs nothing
    on the values that print."""
    if x is None:
        return "-inf"
    g = gcd(x, d)
    try:
        return str(x // g) if g == d else f"{x // g}/{d // g}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"value too long to print: more than {limit} digits in its numerator or denominator") from None


def _scalar_text(s: MaxPlusScalar) -> str:
    """str(s), through _text."""
    v = s.value
    return _text(None, 1) if v is None else _text(v.numerator, v.denominator)


def render_matrix(a: MaxPlusMatrix) -> str:
    """Bit-exact text form: the dimension, then one line per row."""
    d, lines = a._d, [str(a.n)]
    for row in a._rows:
        lines.append(" ".join([_text(x, d) for x in row]))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> MaxPlusMatrix:
    """Parse the text form produced by render_matrix.

    Trailing content after the n matrix rows (e.g. a provenance record)
    is ignored, so generator output can be fed back directly.  Each
    distinct token is read once, into a pair (see _parse_token), the rows
    are scaled by the lcm of their denominators, and that scale is reduced
    to the least (see _from_ints).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise ValueError(f"bad dimension line {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if len(lines) < n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1 : n + 1]:
        tokens = ln.split()
        if len(tokens) != n:
            raise ValueError(f"row {ln!r} has {len(tokens)} entries, expected {n}")
        rows.append(tokens)
    values = dict.fromkeys(chain.from_iterable(rows))  # in reading order: the first bad token raises
    for tok in values:
        values[tok] = _parse_token(tok)
    d = lcm(*{pq[1] for pq in values.values() if pq is not None})
    for tok, pq in values.items():
        values[tok] = None if pq is None else pq[0] * (d // pq[1])
    return MaxPlusMatrix._from_ints(d, [[values[tok] for tok in row] for row in rows])


def _parse_token(tok: str) -> tuple[int, int] | None:
    """parse_scalar(tok).value as a pair (p, q), p/q, q > 0, or None for
    -inf.  An ASCII p or p/q, p digits with an optional "-" and q
    nonzero digits, is read by int alone, with no Fraction; every other
    token, and any int() refuses, by parse_scalar."""
    p, slash, q = tok.partition("/")
    if tok.isascii() and (p[1:] if p[:1] == "-" else p).isdigit() and (not slash or q.isdigit() and q.strip("0")):
        try:
            p, q = int(p), int(q) if slash else 1
        except ValueError:  # past int's digit limit: parse_scalar gives the error
            pass
        else:
            return p, q
    x = parse_scalar(tok).value
    return None if x is None else (x.numerator, x.denominator)


def from_entries(n: int, entries: dict[tuple[int, int], object]) -> MaxPlusMatrix:
    """Build a matrix from a sparse {(i, j): weight} map; the rest is -inf."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    raw = [[None] * n for _ in range(n)]
    for (i, j), w in entries.items():
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"arc ({i},{j}) out of range for n={n}")
        raw[i][j] = as_scalar(w).value
    return MaxPlusMatrix._from_raw(raw)
