"""Dense square max-plus matrices with exact entries.

Multiplication, powers by repeated squaring, the Kleene star via an
all-pairs closure, diagonal scalings, the strict entrywise domination
order, and a bit-exact text format.  Matrices are immutable values;
every operation returns a fresh matrix.  So a matrix may keep what is
computed from it: `spectral.spectrum` and `csr.build_csr` store their
results in its two private slots, and a second call returns them; a
generated matrix gets its skeleton's there instead.

A matrix holds rows of Fraction-or-None, None encoding -inf.  The
products and closures run on an exact integer kernel instead: the
entries (and the cycle mean, where one is involved) are brought to one
common denominator d and each x is replaced by the integer x*d.  Sums
and comparisons of the scaled integers are those of the rationals, so
nothing is rounded; the rows convert back to Fraction only for the
value returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Iterable, Sequence

from .semiring import MaxPlusScalar, _check_exponent, as_scalar, negate, parse_scalar


class MaxPlusMatrix:
    """An n-by-n matrix of max-plus scalars, n >= 1."""

    __slots__ = ("n", "_rows", "_spectrum", "_csr")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        if n == 0:
            raise ValueError("dimension must be >= 1")
        raw = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            raw.append([as_scalar(x).value for x in row])
        self.n = n
        self._rows = raw
        self._spectrum = self._csr = None

    @classmethod
    def _from_raw(cls, raw: list[list]) -> "MaxPlusMatrix":
        """The matrix holding raw itself; callers must not mutate it after."""
        m = object.__new__(cls)
        m.n = len(raw)
        m._rows = raw
        m._spectrum = m._csr = None
        return m

    def raw(self) -> list[list]:
        """Internal Fraction-or-None rows; callers must not mutate."""
        return self._rows

    def __getitem__(self, ij: tuple[int, int]) -> MaxPlusScalar:
        i, j = ij
        return MaxPlusScalar(self._rows[i][j])

    def entries(self) -> Iterable[tuple[int, int, MaxPlusScalar]]:
        for i in range(self.n):
            for j in range(self.n):
                yield i, j, MaxPlusScalar(self._rows[i][j])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaxPlusMatrix):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self._rows))

    def __repr__(self) -> str:
        return f"MaxPlusMatrix.parse({render_matrix(self)!r})"


def identity(n: int) -> MaxPlusMatrix:
    """Max-plus identity: 0 on the diagonal, -inf elsewhere."""
    return from_entries(n, {(i, i): 0 for i in range(n)})


def zeros(n: int) -> MaxPlusMatrix:
    """The all-(-inf) matrix, the additive zero."""
    return from_entries(n, {})


def _check_dims(a: MaxPlusMatrix, b: MaxPlusMatrix) -> None:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


def _scaled(mats: Sequence[MaxPlusMatrix]):
    """The integer form of some matrices.

    Returns (d, rows): d is the least common denominator of every finite
    entry, and rows holds one list of int-or-None rows per matrix with
    each x replaced by x*d.
    """
    d = lcm(*{x.denominator for m in mats for row in m._rows for x in row if x is not None})
    rows = [
        [[None if x is None else x.numerator * (d // x.denominator) for x in row] for row in m._rows]
        for m in mats
    ]
    return d, rows


def _unscaled(rows: list[list], d: int) -> MaxPlusMatrix:
    """The matrix whose entries are the scaled integers in rows divided by d."""
    return MaxPlusMatrix._from_raw(
        [[None if v is None else Fraction(v, d) for v in row] for row in rows]
    )


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
    d, (arows, brows) = _scaled([a, b])
    return _unscaled(_int_mul(arows, _finite_entries(brows)), d)


def mat_power(a: MaxPlusMatrix, t: int) -> MaxPlusMatrix:
    """a to the t-th power, t >= 1, by repeated squaring from the leading
    bit of t (see _int_power)."""
    _check_exponent("mat_power", t)
    if t < 1:
        raise ValueError(f"mat_power needs t >= 1, got {t}")
    d, (rows,) = _scaled([a])
    return _unscaled(_int_power(rows, t), d)


def mat_oplus(a: MaxPlusMatrix, b: MaxPlusMatrix) -> MaxPlusMatrix:
    """Entrywise max of two matrices."""
    _check_dims(a, b)
    out = []
    for ra, rb in zip(a._rows, b._rows):
        row = []
        for x, y in zip(ra, rb):
            if x is None:
                row.append(y)
            elif y is None or x >= y:
                row.append(x)
            else:
                row.append(y)
        out.append(row)
    return MaxPlusMatrix._from_raw(out)


def scalar_times(alpha: MaxPlusScalar, a: MaxPlusMatrix) -> MaxPlusMatrix:
    """alpha tensor a: add alpha to every entry."""
    v = alpha.value
    if v is None:
        return zeros(a.n)
    return MaxPlusMatrix._from_raw(
        [[None if x is None else x + v for x in row] for row in a._rows]
    )


def kleene_star(a: MaxPlusMatrix) -> MaxPlusMatrix:
    """I + a + a^2 + ... + a^(n-1), via O(n^3) all-pairs closure.

    Defined only when the maximum cycle mean is <= 0; a positive cycle
    makes the star diverge and is rejected.
    """
    d, (rows,) = _scaled([a])
    _int_closure(rows)
    for i, row in enumerate(rows):
        if row[i] is not None and row[i] > 0:
            raise ValueError("kleene_star diverges: digraph has a positive-weight cycle")
        row[i] = 0
    return _unscaled(rows, d)


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
    out = []
    for i, row in enumerate(a._rows):
        di = vals[i]
        out.append(
            [None if x is None else x - di + vals[j] for j, x in enumerate(row)]
        )
    return MaxPlusMatrix._from_raw(out)


def strictly_dominated_by(a: MaxPlusMatrix, b: MaxPlusMatrix) -> bool:
    """Entrywise a <= b with equality allowed only at -inf entries."""
    _check_dims(a, b)
    for ra, rb in zip(a._rows, b._rows):
        for x, y in zip(ra, rb):
            if x is None:
                continue
            if y is None or x >= y:
                return False
    return True


def render_matrix(a: MaxPlusMatrix) -> str:
    """Bit-exact text form: the dimension, then one line per row."""
    lines = [str(a.n)]
    for row in a._rows:
        lines.append(" ".join("-inf" if x is None else str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> MaxPlusMatrix:
    """Parse the text form produced by render_matrix.

    Trailing content after the n matrix rows (e.g. a provenance record)
    is ignored, so generator output can be fed back directly.  Each
    distinct token is read once (see _parse_token).
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
    values = dict.fromkeys(tok for row in rows for tok in row)  # in reading order: the first bad token raises
    for tok in values:
        values[tok] = _parse_token(tok)
    return MaxPlusMatrix._from_raw([[values[tok] for tok in row] for row in rows])


def _parse_token(tok: str) -> Fraction | None:
    """parse_scalar(tok).value.  An ASCII p or p/q, p digits with an optional
    "-" and q nonzero digits, is read by int alone, without the regex of
    Fraction(str); every other token, and any int() refuses, by parse_scalar."""
    p, slash, q = tok.partition("/")
    if tok.isascii() and (p[1:] if p[:1] == "-" else p).isdigit() and (not slash or q.isdigit() and q.strip("0")):
        try:
            return Fraction(int(p), int(q)) if slash else Fraction(int(p))
        except ValueError:  # past int's digit limit: parse_scalar gives the error
            pass
    return parse_scalar(tok).value


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
