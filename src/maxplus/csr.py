"""CSR terms, the Nachtigall matrix, weak expansion thresholds, transients.

For a matrix with finite maximum cycle mean lambda and critical graph of
cyclicity gamma, the CSR triple is carved out of
M = ((lambda^-1 * A)^gamma)^*: C keeps the columns of M at critical
nodes, R the rows of M at critical nodes, and S the entries of A on the
critical arcs.  C S^t R is then purely pseudoperiodic in t with period
gamma (up to a lambda^gamma shift), and the weak expansion

    A^t = C S^t R  (+)  B^t

holds for all t past a threshold T1, where B is the Nachtigall matrix
(A with every row and column of a critical node pushed to -inf).  T1 is
found by scanning t up to the ceiling min(Wi(n), DM(g, n)), which is a
proven upper bound for T1, and taking one past the last failing t.

B^t is -inf on every critical row and column, so there the expansion
compares A^t with C S^t R alone: the transient of each critical row and
column is read off the same scan, as one past its own last failure.
The scan for the transient T is separate, since T may exceed the
ceiling.

The triple may also be built with respect to a completely reducible
subgraph of the critical graph (then gamma is the subgraph's cyclicity
and C, S, R are carved at the subgraph's nodes and arcs).

When lambda = -inf (acyclic digraph) the CSR terms are all -inf by
convention and B = A, so the expansion holds trivially from t = 1.

Everything here works on the scaled integer rows of A - lambda that
`spectrum` computed, the one place that scales A with lambda: M, the
gamma residues C S^r R - r*lambda, and the powers of A - lambda and
B - lambda in both scans.  t*lambda thereby drops out of every
comparison, and only the public C, R and the values csr_at returns are
converted back to Fractions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .bounds import dm_bound, wielandt_bound
from .digraph import associated_digraph, scc_decompose
from .matrix import (
    MaxPlusMatrix,
    _finite_entries,
    _int_closure,
    _int_mul,
    _unscaled,
    mat_mul,  # unused here; perfbench/test_bench.py reads csr.mat_mul
    zeros,
)
from .semiring import BOTTOM, MaxPlusScalar
from .spectral import CritGraph, spectrum


@dataclass(eq=False)
class CsrTriple:
    """The matrices C, S, R with the cycle mean and defining cyclicity.

    crit is the critical (sub)graph that C, S and R were carved at, or
    None when the digraph is acyclic.  csr_at evaluates C S^t R for any
    t >= 1 from _residues, C S^r R - r*lambda for r = 1..gamma, kept as
    int rows scaled by _d like the spectrum's rows _norm of A - lambda.
    """

    c: MaxPlusMatrix
    s: MaxPlusMatrix
    r: MaxPlusMatrix
    lam: MaxPlusScalar
    gamma: int
    crit: CritGraph | None = None
    _d: int | None = field(default=None, repr=False)
    _norm: list[list] | None = field(default=None, repr=False)
    _residues: list[list[list]] = field(default_factory=list, repr=False)

    @property
    def n(self) -> int:
        return self.c.n


def build_csr(a: MaxPlusMatrix, subgraph: CritGraph | None = None) -> CsrTriple:
    """CSR terms of a, w.r.t. the full critical graph or a given subgraph.

    The subgraph must be a completely reducible subgraph of the critical
    graph (e.g. one of its strongly connected components); its own
    cyclicity becomes gamma.
    """
    sp = spectrum(a)
    if sp.crit is None:
        if subgraph is not None:
            raise ValueError("no critical subgraph exists for an acyclic digraph")
        z = zeros(a.n)
        return CsrTriple(c=z, s=z, r=z, lam=BOTTOM, gamma=1)
    lam = sp.lam
    k = sp.crit if subgraph is None else subgraph
    if not k.arcs <= sp.crit.arcs:
        raise ValueError("subgraph is not contained in the critical graph")
    gamma = k.cyclicity
    n = a.n
    norm, d = sp._norm, sp._d
    m, step = [row[:] for row in norm], _finite_entries(norm)
    for _ in range(gamma - 1):
        m = _int_mul(m, step)
    _int_closure(m)
    for i, row in enumerate(m):
        row[i] = 0  # M = ((A - lambda)^gamma)^*; its cycles weigh <= 0
    c = [[m[i][j] if j in k.nodes else None for j in range(n)] for i in range(n)]
    r = [[m[i][j] if i in k.nodes else None for j in range(n)] for i in range(n)]
    s_norm = [[(j, norm[i][j]) for j in range(n) if (i, j) in k.arcs] for i in range(n)]
    r_finite = _finite_entries(r)
    residues, cs = [], c
    for _ in range(gamma):
        cs = _int_mul(cs, s_norm)
        residues.append(_int_mul(cs, r_finite))
    araw = a.raw()
    s = [[araw[i][j] if (i, j) in k.arcs else None for j in range(n)] for i in range(n)]
    return CsrTriple(
        c=_unscaled(c, d),
        s=MaxPlusMatrix._from_raw(s),
        r=_unscaled(r, d),
        lam=lam,
        gamma=gamma,
        crit=k,
        _d=d,
        _norm=norm,
        _residues=residues,
    )


def csr_at(triple: CsrTriple, t: int) -> MaxPlusMatrix:
    """Evaluate C S^t R exactly, t >= 1, from the gamma residues."""
    if t < 1:
        raise ValueError(f"csr_at needs t >= 1, got {t}")
    if triple.lam.is_bottom:
        return zeros(triple.n)
    shift = int(t * triple.lam.value * triple._d)
    residue = triple._residues[(t - 1) % triple.gamma]
    shifted = [[None if x is None else x + shift for x in row] for row in residue]
    return _unscaled(shifted, triple._d)


def nachtigall_matrix(a: MaxPlusMatrix, crit: CritGraph | None) -> MaxPlusMatrix:
    """a with every entry in a critical row or column replaced by -inf."""
    if crit is None:
        return a
    return MaxPlusMatrix._from_raw(_nachtigall_rows(a.raw(), crit.nodes))


def _nachtigall_rows(rows: list[list], nodes: frozenset[int]) -> list[list]:
    """rows with every entry in a row or column in nodes set to None."""
    return [
        [None if (i in nodes or j in nodes) else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


@dataclass(eq=False)
class WeakExpansion:
    """The weak expansion data: CSR triple, Nachtigall matrix, threshold T1.

    A^t equals csr_at(t) (+) B^t exactly for every t >= t1, and differs
    at t1 - 1 whenever t1 > 1.  rows and cols map each critical index to
    the least T from which its row (resp. column) of A^t equals the same
    row of C S^t R for all t >= T; both are empty when the digraph is
    acyclic.
    """

    csr: CsrTriple
    b: MaxPlusMatrix
    t1: int
    rows: dict[int, int]
    cols: dict[int, int]


def weak_threshold_T1(a: MaxPlusMatrix) -> WeakExpansion:
    """Least t1 >= 1 with A^t = C S^t R (+) B^t for all t >= t1.

    Scans every t from 1 up to the proven ceiling min(Wi(n), DM(g, n));
    equality at one t does not imply it at the next, so the scan keeps
    the last failure rather than stopping early.  At each failing t it
    also records which critical rows and columns differ.

    The scan runs on the triple's integers: both sides are compared
    after subtracting t*lambda, i.e. as powers of A - lambda and
    B - lambda (A - lambda with the critical rows and columns at -inf)
    against the residue of t.
    """
    triple = build_csr(a)
    crit = triple.crit
    if crit is None:
        return WeakExpansion(csr=triple, b=a, t1=1, rows={}, cols={})
    b = nachtigall_matrix(a, crit)
    nodes = sorted(crit.nodes)
    ceiling = min(wielandt_bound(a.n), dm_bound(crit.girth, a.n))
    gamma, residues = triple.gamma, triple._residues
    at, bt = triple._norm, _nachtigall_rows(triple._norm, crit.nodes)
    a_step, b_step = _finite_entries(at), _finite_entries(bt)
    last_fail = 0
    row_fail = dict.fromkeys(nodes, 0)
    col_fail = dict.fromkeys(nodes, 0)
    for t in range(1, ceiling + 1):
        if t > 1:
            at, bt = _int_mul(at, a_step), _int_mul(bt, b_step)
        expected = [
            [x if y is None or (x is not None and x >= y) else y for x, y in zip(rrow, brow)]
            for rrow, brow in zip(residues[(t - 1) % gamma], bt)
        ]
        if at == expected:
            continue
        last_fail = t
        for k in nodes:
            if at[k] != expected[k]:
                row_fail[k] = t
            if any(arow[k] != erow[k] for arow, erow in zip(at, expected)):
                col_fail[k] = t
    return WeakExpansion(
        csr=triple,
        b=b,
        t1=last_fail + 1,
        rows={i: f + 1 for i, f in row_fail.items()},
        cols={j: f + 1 for j, f in col_fail.items()},
    )


_SCAN_CAP = 10_000


def transient_T(a: MaxPlusMatrix) -> int:
    """Least T >= 0 with A^(t+gamma) = lambda^gamma * A^t for all t >= T.

    Defined for strongly connected digraphs; gamma is the cyclicity of
    the critical graph.  The scan walks t upward and stops at the first
    t where the equality holds: multiplying both sides by A shows that
    equality at t forces equality at t + 1.  Only the gamma + 1 powers
    A^t .. A^(t+gamma) are kept.  Raises RuntimeError when T > _SCAN_CAP.
    """
    if not _strongly_connected(a):
        raise ValueError("transient is defined for strongly connected digraphs only")
    sp = spectrum(a)
    if sp.crit is None:
        raise ValueError("transient undefined: single node without a loop")
    return _transient_scan(sp._norm, sp.crit.cyclicity)


def _strongly_connected(a: MaxPlusMatrix) -> bool:
    return len(scc_decompose(associated_digraph(a)).components) == 1


def _transient_scan(norm: list[list], gamma: int) -> int:
    """transient_T's scan, given the scaled int rows of A - lambda and the
    cyclicity gamma of the critical graph.

    For A - lambda the condition reads (A - lambda)^(t+gamma) =
    (A - lambda)^t; returns the first t <= _SCAN_CAP where it holds.
    """
    step = _finite_entries(norm)
    n = len(norm)
    window = deque([[[0 if i == j else None for j in range(n)] for i in range(n)]])
    for t in range(_SCAN_CAP + 1):
        while len(window) <= gamma:
            window.append(_int_mul(window[-1], step))
        if window[-1] == window.popleft():
            return t
    raise RuntimeError(f"transient exceeds the scan cap {_SCAN_CAP}")


def crit_row_col_profile(a: MaxPlusMatrix) -> tuple[int, dict[int, int], dict[int, int]]:
    """Overall and per-index transients of the critical rows and columns.

    Returns (overall, row_transients, col_transients), read from the
    rows and cols of weak_threshold_T1.  The overall value is the max and
    never exceeds the weak expansion threshold.
    """
    expansion = weak_threshold_T1(a)
    if expansion.csr.crit is None:
        raise ValueError("no critical rows or columns: the digraph is acyclic")
    return _crit_rc_overall(expansion), expansion.rows, expansion.cols


def _crit_rc_overall(expansion: WeakExpansion) -> int | None:
    return max([*expansion.rows.values(), *expansion.cols.values()], default=None)


@dataclass(eq=False)
class TransientReport:
    """Summary of the periodicity analysis of one matrix.

    T is None when the digraph is not strongly connected (the transient
    itself is only defined in the irreducible case); the critical-graph
    fields are None when the digraph is acyclic.
    """

    n: int
    lam: MaxPlusScalar
    g: int | None
    gamma: int | None
    t: int | None
    t1: int
    wi: int
    dm: int | None
    attains_dm: bool
    attains_wiel: bool
    crit_rc_transient: int | None

    def as_dict(self) -> dict:
        return {
            "lambda": str(self.lam),
            "g": self.g,
            "gamma": self.gamma,
            "T": self.t,
            "T1": self.t1,
            "wi": self.wi,
            "dm": self.dm,
            "attains_dm": self.attains_dm,
            "attains_wiel": self.attains_wiel,
            "crit_rc_transient": self.crit_rc_transient,
        }

    def render(self) -> str:
        lines = []
        for key, value in self.as_dict().items():
            shown = "none" if value is None else value
            lines.append(f"{key:>18}: {shown}")
        return "\n".join(lines) + "\n"


def analyze(a: MaxPlusMatrix) -> TransientReport:
    """Full transient report: lambda, crit summary, T, T1, bounds, flags."""
    expansion = weak_threshold_T1(a)
    lam, crit = expansion.csr.lam, expansion.csr.crit
    t = None
    if crit is not None and _strongly_connected(a):
        t = _transient_scan(expansion.csr._norm, crit.cyclicity)
    wi = wielandt_bound(a.n)
    dm = None if crit is None else dm_bound(crit.girth, a.n)
    return TransientReport(
        n=a.n,
        lam=lam,
        g=None if crit is None else crit.girth,
        gamma=None if crit is None else crit.cyclicity,
        t=t,
        t1=expansion.t1,
        wi=wi,
        dm=dm,
        attains_dm=expansion.t1 == dm,
        attains_wiel=expansion.t1 == wi,
        crit_rc_transient=_crit_rc_overall(expansion),
    )
