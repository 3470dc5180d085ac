"""CSR terms, the Nachtigall matrix, weak expansion thresholds, transients.

For a matrix with finite maximum cycle mean lambda and critical graph of
cyclicity gamma, the CSR triple is carved out of M, the closure of
(lambda^-1 * A)^gamma: C keeps the columns of M at critical nodes, R
the rows of M at critical nodes (M is 0 at (k, k), k critical, as the
Kleene star is), and S the entries of A on the critical arcs.  C S^t R
is then purely pseudoperiodic in t with period gamma (up to a
lambda^gamma shift), and the weak expansion

    A^t = C S^t R  (+)  B^t

holds for all t past a threshold T1, where B is the Nachtigall matrix
(A with every row and column of a critical node pushed to -inf).  It
holds at t exactly when C S^t R <= A^t (see _excess), so no power of B
is computed.  One sweep over the powers of A - lambda (see _sweep)
yields T1, the transient of each critical row and column, where A^t
meets C S^t R alone, and T.  A row, once it meets C S^t R, keeps to it,
so the sweep tests only the rows that failed one power back and stops
testing at T1.  A row of the powers is periodic from t >= 1 exactly
when it equals the same row of C S^t R; the sweep then retires it and
multiplies only the rows not yet periodic, so T = max(T1, T2) row by
row, T2 the time after which C S^t R dominates B^t.  Past the ceiling
on T1 it steps on while that costs less than the galloping search of
_transient would, and hands over to the search when it does not: the
sweep returns T either way.  Whether T1 equals that ceiling is decided
by the same sweep started one power below the ceiling, at two powers
alone (see _t1_at_ceiling); the generators in `extremal` check their
candidates so.
On a critical graph that covers every node as one component of
cyclicity 1, T1 and T are its exponent (see _primitive_cover), found on
bit rows by _boolean_index: analyze and _t1_at_ceiling take no power,
and every residue C S^t R - t*lambda is M itself.

The triple may also be built with respect to a completely reducible
subgraph of the critical graph (then gamma is the subgraph's cyclicity
and C, S, R are carved at the subgraph's nodes and arcs).

When lambda = -inf (acyclic digraph) the CSR terms are all -inf by
convention and B = A, so the expansion holds trivially from t = 1.

Everything here works on the scaled integer rows of A - lambda that
`spectrum` computed, the one place that scales A with lambda: M, the
gamma residues C S^r R - r*lambda, and the powers of A - lambda in the
sweep.  At gamma = 1, M is the closure P+ of P = A - lambda that the
spectrum kept; at gamma > 1 it is the closure of P^gamma, that power
taken by repeated squaring.  t*lambda thereby drops out of every
comparison, and only the public C, S, R and the values csr_at returns
are converted back to Fractions.

A triple is built only as far as it is read: build_csr computes M
alone, C, S and R are carved when the properties are read, and each
residue the first time csr_at or the sweep reads it, as C R at r =
gamma and as one product by P of the one before elsewhere (see
_residue), or as M itself when _primitive_cover holds.  The triple of a
matrix's whole critical graph is built once per matrix and stored on
it, like its spectrum, or inherited with it (see _inherit_triple).
C S^t R is read as int rows (_int_csr_at).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import count

from .bounds import dm_bound, wielandt_bound
from .digraph import _levels, _successors
from .matrix import (
    MaxPlusMatrix,
    _finite_entries,
    _int_closure,
    _int_mul,
    _int_power,
    _unscaled,
    mat_mul,  # unused here; perfbench/test_bench.py reads csr.mat_mul
)
from .semiring import BOTTOM, MaxPlusScalar, _check_exponent
from .spectral import CritGraph, spectrum


@dataclass(eq=False)
class CsrTriple:
    """The matrices C, S, R with the cycle mean and defining cyclicity.

    crit is the critical (sub)graph that C, S and R were carved at, or
    None when the digraph is acyclic.  _m holds the int rows of M, the
    closure that C and R are carved from at crit's nodes, scaled by _d
    like the spectrum's rows _norm of A - lambda, from which S - lambda
    is read on crit's arcs; the properties c, r and s carve and convert
    them when read.  csr_at evaluates C S^t R for any t >= 1 from the
    residue C S^r R - r*lambda, r = t modulo gamma, which _residue
    computes on its first read and keeps in _residues.
    """

    lam: MaxPlusScalar
    gamma: int
    crit: CritGraph | None = None
    _d: int = field(default=1, repr=False)
    _norm: list[list] | None = field(default=None, repr=False)
    _m: list[list] = field(default_factory=list, repr=False)
    _residues: dict[int, list[list]] = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return len(self._m)

    @property
    def c(self) -> MaxPlusMatrix:
        nodes = () if self.crit is None else self.crit.nodes
        return _unscaled([[x if j in nodes else None for j, x in enumerate(row)] for row in self._m], self._d)

    @property
    def r(self) -> MaxPlusMatrix:
        nodes = () if self.crit is None else self.crit.nodes
        return _unscaled([row if i in nodes else [None] * self.n for i, row in enumerate(self._m)], self._d)

    @property
    def s(self) -> MaxPlusMatrix:
        rows = [[None] * self.n for _ in range(self.n)]
        for i, j in () if self.crit is None else self.crit.arcs:
            rows[i][j] = Fraction(self._norm[i][j], self._d) + self.lam.value
        return MaxPlusMatrix._from_raw(rows)


def build_csr(a: MaxPlusMatrix, subgraph: CritGraph | None = None) -> CsrTriple:
    """CSR terms of a, w.r.t. the full critical graph or a given subgraph.

    The subgraph must be a completely reducible subgraph of the critical
    graph (e.g. one of its strongly connected components); its own
    cyclicity becomes gamma.  The triple of the whole critical graph is
    built once per matrix: it is stored on a and returned again.
    """
    if subgraph is not None:
        return _build_csr(a, subgraph)
    if a._csr is None:
        a._csr = _build_csr(a, None)
    return a._csr


def _build_csr(a: MaxPlusMatrix, subgraph: CritGraph | None) -> CsrTriple:
    """The triple of a at k, the subgraph or the critical graph, read off
    a's spectrum alone.  At gamma = 1, M is the spectrum's closure P+
    itself, and so may be the residues (see _residue): every reader only
    reads them, _sweep copies the outer list, and _inherit_triple and the
    properties c, r make new rows."""
    sp = spectrum(a)
    if sp.crit is None:
        if subgraph is not None:
            raise ValueError("no critical subgraph exists for an acyclic digraph")
        return CsrTriple(lam=BOTTOM, gamma=1, _m=[[None] * a.n for _ in range(a.n)])
    k = sp.crit if subgraph is None else subgraph
    if not k.arcs <= sp.crit.arcs:
        raise ValueError("subgraph is not contained in the critical graph")
    m = sp._closure
    if k.cyclicity > 1:
        m = _int_power(sp._norm, k.cyclicity)  # new rows, as gamma >= 2
        _int_closure(m)
    return CsrTriple(sp.lam, k.cyclicity, k, _d=sp._d, _norm=sp._norm, _m=m)


def _residue(triple: CsrTriple, t: int) -> list[list]:
    """Q_t = C S^t R - t*lambda as int rows scaled by _d, t >= 1; it depends
    on t modulo gamma only, and t = 0 reads Q_gamma.  Q_gamma = C R, one
    product of M by its critical rows, and Q_k = Q_(k-1) P for k = 1, ...,
    gamma - 1, P = A - lambda and Q_0 = Q_gamma, each taken on its first
    read.  When the
    triple's (sub)graph meets _primitive_cover, every Q_t is M itself
    (step 3 there), taken with no product; read its rows only.

    Lemma.  C (S - lambda)^gamma R = C R, so Q_gamma = C R; the
    recurrence is _sweep's lemma.  Proof, for critical k and l, with
    walks weighed in P.  (<=) M(i, k) + (S - lambda)^gamma(k, l) <=
    M(i, l), as the two walks together have a length that is a positive
    multiple of gamma: each term M(i, k) + (S - lambda)^gamma(k, l) +
    M(l, j) is at most the term M(i, l) + M(l, j) of C R.  (>=) k lies
    on a critical cycle, so a critical walk W of length gamma leads from
    k to some l.  The cyclicity of k's component divides gamma, so a
    critical walk Z from l back to k has a length that is a positive
    multiple of gamma, and closes W at weight 0.  So M(l, j) >= w(Z) +
    M(k, j) = M(k, j) - w(W), and the term at (k, l) is at least M(i, k)
    + w(W) + M(k, j) - w(W).
    """
    k = (t - 1) % triple.gamma + 1
    if k in triple._residues:
        return triple._residues[k]
    m = triple._m
    if _primitive_cover(triple.crit, triple.n):
        rows = m
    elif k == triple.gamma:
        rows = _int_mul(m, _finite_entries([row if i in triple.crit.nodes else [] for i, row in enumerate(m)]))
    else:
        rows = _int_mul(_residue(triple, k - 1), _finite_entries(triple._norm))
    triple._residues[k] = rows
    return rows


def _int_csr_at(triple: CsrTriple, t: int) -> tuple[int, list[list]]:
    """(d, the rows of C S^t R scaled by d), d the triple's scale, t >= 1:
    the residue of t plus t*lambda*d, an int as d is a multiple of
    lambda's denominator, and the residue's own rows when that is 0, as
    at lambda = 0; read them only.  They are all None when acyclic."""
    n, d = triple.n, triple._d
    if triple.crit is None:
        return d, [[None] * n for _ in range(n)]
    lam, rows = triple.lam.value, _residue(triple, t)
    shift = t * lam.numerator * (d // lam.denominator)
    return d, [[None if x is None else x + shift for x in row] for row in rows] if shift else rows


def csr_at(triple: CsrTriple, t: int) -> MaxPlusMatrix:
    """Evaluate C S^t R exactly, t >= 1, from the residue of t modulo gamma."""
    _check_exponent("csr_at", t)
    if t < 1:
        raise ValueError(f"csr_at needs t >= 1, got {t}")
    d, rows = _int_csr_at(triple, t)
    return _unscaled(rows, d)


def _csr_entry(triple: CsrTriple, t: int, i: int, j: int) -> MaxPlusScalar:
    """Entry (i, j) of csr_at(triple, t)."""
    d, rows = _int_csr_at(triple, t)
    return MaxPlusScalar(None if rows[i][j] is None else Fraction(rows[i][j], d))


def _below_csr_at_one(triple: CsrTriple, entries: list[tuple[int, int, Fraction]]) -> bool:
    """Does each finite entry p/q, q > 0, at (i, j) lie strictly below CSR
    at t = 1?  With that entry of CSR as an int y scaled by d (see
    _int_csr_at), it does iff y is finite and p*d < y*q."""
    d, rows = _int_csr_at(triple, 1)
    return all(rows[i][j] is not None and x.numerator * d < rows[i][j] * x.denominator for i, j, x in entries)


def _inherit_triple(a: MaxPlusMatrix, triple: CsrTriple) -> None:
    """Store triple on a, of its lambda, critical graph and M (see
    extremal._inherit_skeleton), at the scale of a's spectrum, which was
    handed over with them.  At gamma = 1, M is that spectrum's closure P+
    itself; otherwise each list of int rows is multiplied by sp._d //
    triple._d once.  Either way a residue that is M stays M, to be read
    only."""
    sp = spectrum(a)
    f = sp._d // triple._d
    scaled = {id(triple._m): sp._closure} if triple.gamma == 1 else {}
    for rows in (triple._m, *triple._residues.values()):
        if id(rows) not in scaled:
            scaled[id(rows)] = [[None if x is None else x * f for x in row] for row in rows]
    a._csr = CsrTriple(
        lam=triple.lam, gamma=triple.gamma, crit=triple.crit, _d=sp._d, _norm=sp._norm, _m=scaled[id(triple._m)],
        _residues={k: scaled[id(rows)] for k, rows in triple._residues.items()},
    )


def nachtigall_matrix(a: MaxPlusMatrix, crit: CritGraph | None) -> MaxPlusMatrix:
    """a with every entry in a critical row or column replaced by -inf."""
    if crit is None:
        return a
    keep = [i not in crit.nodes for i in range(a.n)]
    return MaxPlusMatrix._from_raw(
        [[x if keep[i] and keep[j] else None for j, x in enumerate(row)] for i, row in enumerate(a.raw())]
    )


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

    It holds at t exactly when C S^t R <= A^t (see _excess).  The sweep
    tests each row until it first holds, so t1 and the transient of each
    critical row and column are one past their last failure, up to the
    proven ceiling min(Wi(n), DM(g, n)); it stops at t1 (see _sweep).

    Holding at t implies holding at t + 1, in the whole matrix and in each
    row and column alone.  Proof.  Write P = A - lambda, S' = S - lambda
    (the arcs of P on the critical graph) and Q_t = C S'^t R, so that the
    expansion holds at t iff Q_t <= P^t.  M >= P^(m*gamma) for all m >=
    1, and M(k, k) = 0 at a critical k, so row k of M is at least that
    of P^(m*gamma) for m = 0 too.  For a critical k, (S' R)(k, j) is the weight of a
    best walk from k to j of length m*gamma + 1, m >= 0, that starts with
    a critical arc.  That walk is also m*gamma arcs to some u followed by
    the arc (u, j), so it weighs at most M(k, u) + P(u, j) = R(k, u) +
    P(u, j): R P >= S' R, both sides -inf on the other rows.  Hence
    Q_(t+1) = C S'^t (S' R) <= Q_t P, and row i of Q_t <= row i of P^t
    gives row i of Q_(t+1) <= (row i of Q_t) P <= row i of P^(t+1).  In
    the same way a walk of length 1 + m*gamma that ends with a critical
    arc is one arc followed by m*gamma arcs, so P C >= C S', Q_(t+1) <=
    P Q_t, and the columns follow.  So t1 is also the least t >= 1 at
    which the expansion holds, and the sweep tests no row at a t past the
    first at which that row held.
    """
    triple = build_csr(a)
    _, t1, rows, cols = _sweep(triple)
    return WeakExpansion(csr=triple, b=nachtigall_matrix(a, triple.crit), t1=t1, rows=rows, cols=cols)


def transient_T(a: MaxPlusMatrix) -> int:
    """Least T >= 0 with A^(t+gamma) = lambda^gamma * A^t for all t >= T.

    Defined for strongly connected digraphs, with gamma the cyclicity of
    the critical graph; found by _transient's galloping search from t = 0
    against the residues of a's CSR triple (see _sweep).
    """
    sp = spectrum(a)
    if not sp._strongly_connected:
        raise ValueError("transient is defined for strongly connected digraphs only")
    if sp.crit is None:
        raise ValueError("transient undefined: single node without a loop")
    return _transient(sp._norm, 0, _int_identity(a.n), partial(_residue, build_csr(a)))


def _int_identity(n: int) -> list[list]:
    return [[0 if i == j else None for j in range(n)] for i in range(n)]


def _sweep(
    triple: CsrTriple, transient: bool = False, start: int = 1
) -> tuple[int | None, int, dict[int, int], dict[int, int]]:
    """(T, t1, rows, cols) from one loop over the powers P^t of P = A - lambda.

    T is the least t >= 0 with P^(t+gamma) = P^t, and Q_t = C S'^t R the
    residue of t (see _residue), S' = S - lambda.  Row i of P^t is
    periodic from t >= 1 exactly when it equals row i of Q_t, so the sweep
    retires row i at the first t >= 1 where the two are equal, multiplies
    only the active rows by P, and takes each retired row of P^(t+1) from
    Q_(t+1).  With transient it stops when no row is left, with T.

    Lemma.  On the critical rows R P = S' R, so Q_t P = Q_(t+1) for t >= 1
    (and Q_gamma P = Q_1).  R P >= S' R is in weak_threshold_T1's proof.
    For <=, take a walk W of length m*gamma + 1 from a critical l to j.
    The critical graph has an arc (l, l') and a walk Z from l' back to l
    with |Z| = -1 (mod gamma), as the cyclicity of l's component divides
    gamma.  The arc and Z close a critical walk, of weight 0, and Z W has
    length = 0 (mod gamma), so P(l, l') + M(l', j) >= w(W).
    Consequences.  Row i of P^t equal to row i of Q_t gives row i of
    P^(t+1) = (row i of Q_t) P = row i of Q_(t+1), and so on: the row is
    periodic from t.  Conversely, let row i be periodic from t >= 1 and
    t + k*gamma >= T1.  Row i of P^t is then row i of Q_t (+)
    (B - lambda)^(t+k*gamma) (see _excess), whose finite entries tend to
    -inf as k grows, since every cycle of B lies below lambda; so it is
    row i of Q_t.  Row i thus retires at max(T_i, 1), T_i the least t from
    which it is periodic, max(T1_i, T2_i) in the paper's terms, and T is
    the last retirement, or 0 when every row retires at t = 1 and
    Q_gamma = I (_residue maps t = 0 to gamma).  Irreducibility is not
    used, but on reducible input some rows may never retire.

    It also finds where Q_t exceeds P^t (see _excess), for t1 and the
    critical row and column transients.  A row that holds at t holds at
    every later t (see weak_threshold_T1), so at t it tests only the rows
    that failed at t - 1, every row at t = 1, and stops testing at the
    first t where none fails: that t is t1, and the entries that exceed
    are those a test of every row would find.  Testing also stops past
    the ceiling c = min(Wi(n), DM(g, n)), the proven bound on t1.  A
    failing row differs from Q_t, so it is active; a retired one never
    fails again.  Without transient the sweep multiplies only the failing
    rows and returns at t1, or at c (n = 1 has c = 0 < t1 = 1), with T
    None, after t1 - 1 steps.  An acyclic digraph has no critical graph
    and no T; it gives (None, 1, {}, {}).

    The T1-only sweep may start at a later t = start, from P^start taken
    by _int_power, testing every row there.  As a row that holds keeps
    holding, the t at which some row fails form 1, ..., t1 - 1, so from
    start it returns t1 itself when t = start fails, and t1 = 1 when it
    holds, as then no later t fails; rows and cols likewise.  From start =
    c - 1 that is two tests and one product of the failing rows: t1 = c
    exactly when t = c - 1 fails and t = c holds (see _t1_at_ceiling).

    Past c, which only the sweep with transient reaches with rows left,
    T may lie arbitrarily far on.  There the sweep, which needs P strongly
    connected so that its powers end periodic, steps on while that is
    cheaper than the galloping search of _transient, a ski-rental rule:
    at t = c + s it hands (t, P^t) over as soon as the work of its s steps
    past c exceeds 2*bit_length(s)*M, and returns the T that the search
    finds from there.  Work counts as the kernel's (see
    _square_work): a step passes over the rows and multiplies each active
    one by P, so it is counted as n, plus n + nnz(P) per active row, and M
    is the work of squaring P^c, the price of one product of the search.

    The bound, in units of M.  From t' with u = T - t' >= 1, _transient
    makes bit_length(u) probes, all but the last with a square, and
    bit_length(u) - 1 halvings: G(u) = 3*bit_length(u) - 2 products.  Let
    u = T - c.  If all rows retire first, the rule held after u - 1 steps,
    which cost at most 2*bit_length(u)*M, at most G(u)*M for u >= 2.  If
    it hands over after s >= 1 steps, then 1 <= s < u, those steps cost
    at most 2*bit_length(u)*M and the search from c + s at most G(u)*M.
    Plus a step, that is at most (5*b - 2)/(3*b - 2) <= 2 times the bound
    G(u)*M on the search from c, b = bit_length(u) >= 2; T is exact
    either way.
    """
    if triple.crit is None:
        return None, 1, {}, {}
    norm, n = triple._norm, triple.n
    step = _finite_entries(norm)
    at, active, failing = _int_power(norm, start), range(n), list(range(n))  # every row is tested at start
    nodes = sorted(triple.crit.nodes)
    ceiling, t1, rows, cols = _ceiling(triple), 1, dict.fromkeys(nodes, 1), dict.fromkeys(nodes, 1)
    nnz, spent = sum(map(len, step)), 0  # nnz(P) bounds a row's step; spent counts the steps past c
    for t in count(start):
        if transient:
            residue = _residue(triple, t)
            active = [i for i in active if at[i] != residue[i]]
            if not active:
                return (0 if t == 1 and _residue(triple, 0) == _int_identity(n) else t), t1, rows, cols
        if failing and t <= ceiling:
            excess = _excess(triple, t, at, failing)
            failing = sorted({i for i, _ in excess})
            if excess:
                t1 = t + 1
                rows.update((i, t + 1) for i in failing if i in rows)
                cols.update((j, t + 1) for _, j in excess if j in cols)
        if not transient and (not failing or t >= ceiling):
            return None, t1, rows, cols
        if transient and t >= ceiling:
            square = square if spent else _square_work(at)
            if spent > 2 * (t - ceiling).bit_length() * square:
                return _transient(norm, t, at, partial(_residue, triple)), t1, rows, cols
            spent += n + len(active) * (n + nnz)
        left = active if transient else failing
        nxt = _residue(triple, t + 1)[:]  # the retired rows of P^(t+1); rows neither left nor retired are not read
        for i, row in zip(left, _int_mul([at[i] for i in left], step)):
            nxt[i] = row
        at = nxt


def _transient(norm: list[list], t: int, at: list[list], residue: Callable[[int], list[list]]) -> int:
    """Least T >= t with P^T = Q_T, P = norm and Q_T = residue(T), given
    at = P^t and the equality failing below t; it holds from T on (see
    _sweep), so the search gallops by P, P^2, P^4, ... and bisects back
    over the squares, one product a probe: O(log(T - t)) in all.  From
    t = 0, at = I and residue(0) = Q_gamma it returns T itself.  P must be
    strongly connected, so that its powers end periodic."""
    if at == residue(t):
        return t
    squares = [norm]  # squares[k] is P^(2^k)
    while (probe := _int_mul(at, _finite_entries(squares[-1]))) != residue(t + (1 << (len(squares) - 1))):
        t, at = t + (1 << (len(squares) - 1)), probe
        squares.append(_int_power(squares[-1], 2))
    for k in reversed(range(len(squares) - 1)):  # T - t is in (0, 2^(k+1)]
        probe = _int_mul(at, _finite_entries(squares[k]))
        if probe != residue(t + (1 << k)):
            t, at = t + (1 << k), probe
    return t + 1


def _square_work(at: list[list]) -> int:
    """The kernel's work for the product of at by itself (see _int_mul): a
    visit to each of the n^2 entries of the left rows, and for each finite
    (i, k) one to each finite entry of row k, so the sum over k of the
    finite entries of column k times those of row k."""
    n = len(at)
    return n * n + sum(len(row) * (n - col.count(None)) for row, col in zip(_finite_entries(at), zip(*at)))


def _ceiling(triple: CsrTriple) -> int:
    """The proven bound min(Wi(n), DM(g, n)) on T1, g the critical girth."""
    n = triple.n
    return min(wielandt_bound(n), dm_bound(triple.crit.girth, n))


def _excess(triple: CsrTriple, t: int, at: list[list], rows: list[int]) -> list[tuple[int, int]]:
    """The entries (i, j), i in the given rows, where the residue Q_t of t
    exceeds at = P^t.

    With P = A - lambda and Q_t = C S^t R - t*lambda, the expansion at t
    is P^t = Q_t (+) (B - lambda)^t.  It holds exactly when no entry
    exceeds, and so does a critical row (column) when none lies in it.

    Proof.  Take a walk W of length t from i to j.  If W avoids the
    critical nodes, it is a walk of B.  Else it splits at a critical k
    into W1 of length a and W2 of length t - a.  The critical graph,
    where closed walks weigh 0, has walks from k to some k' of length
    = -a, from k' to some l of length t, and from l back to k of length
    = a - t (mod gamma; the lengths agree modulo the cyclicity of k's
    component; each may be taken of positive length).  Their weights w1,
    w2, w3 sum to 0, and M has M(i, k') >= w(W1) + w1 and M(l, j) >= w3 + w(W2), while
    (S - lambda)^t has (k', l) >= w2, so Q_t(i, j) >= w(W).  Hence
    P^t <= Q_t (+) (B - lambda)^t, while (B - lambda)^t <= P^t as B <= A:
    the expansion holds iff Q_t <= P^t.  Every walk from or to a critical
    k passes k, and (B - lambda)^t is -inf on row and column k, so row
    and column k of P^t are <= those of Q_t.
    """
    residue = _residue(triple, t)
    return [
        (i, j)
        for i in rows
        if residue[i] != at[i]
        for j, (q, p) in enumerate(zip(residue[i], at[i]))
        if q is not None and (p is None or q > p)
    ]


def _boolean_index(crit: CritGraph) -> int:
    """Transient of the critical graph as a 0/-inf matrix (max over components).

    Each component is strongly connected and every cycle in it weighs 0,
    so its 0/-inf matrix has cycle mean 0, is its own A - lambda, and has
    the whole component as critical graph, of cyclicity comp.cyclicity.
    The matrix is 0/-inf, so its powers are too: they run on bit rows,
    row i the mask of the nodes j with entry (i, j) 0, and a product ORs
    the rows of the right factor that a left row selects.  Row i of the
    residue Q_t is the mask of a cyclic class (see _class_masks).  No arc
    joins two components, so a power's rows are those of each component's
    powers, and P^t = Q_t for all components at once exactly when t is at
    least each component's transient, from which that equality holds (see
    _sweep): the search gallops by P, P^2, P^4, ... from t = 0 to the
    first square that meets Q, then bisects back with the smaller squares,
    and the first t at which P^t = Q_t is the largest transient.
    """
    succ = _successors(max(crit.nodes) + 1, crit.arcs)
    residue = _class_masks(succ, crit)
    at = [1 << i if i in crit.nodes else 0 for i in range(len(succ))]  # P^0 on the critical rows
    if at == residue(0):
        return 0
    squares = [[sum(1 << j for j in row) for row in succ]]  # squares[k] is P^(2^k)
    while squares[-1] != residue(1 << (len(squares) - 1)):
        squares.append(_bit_mul(squares[-1], squares[-1]))
    if len(squares) == 1:
        return 1
    t, at = 1 << (len(squares) - 2), squares[-2]  # the transient is in (t, 2t]
    for k in reversed(range(len(squares) - 2)):
        probe = _bit_mul(at, squares[k])
        if probe != residue(t + (1 << k)):
            t, at = t + (1 << k), probe
    return t + 1


def _bit_mul(x: list[int], y: list[int]) -> list[int]:
    """The Boolean product of bit rows: row i ORs the rows y[j] of the bits j of x[i]."""
    out = []
    for row in x:
        acc = 0
        while row:
            low = row & -row
            acc |= y[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def _class_masks(succ: list[list[int]], crit: CritGraph) -> Callable[[int], list[int]]:
    """t -> the residue Q_t of the critical graph's 0/-inf matrix as bit
    rows, 0 off the critical nodes, given its successor lists.

    Lemma.  In a component of cyclicity gamma, with l its BFS levels
    (digraph._levels), every arc (u, v) has l(v) = l(u) + 1 (mod gamma),
    so every walk from i to j has length = l(j) - l(i), and past some
    length there is one of each such length.  So M, the closure of
    P^gamma, is 0 exactly on the pairs of one cyclic class, and Q_t = C S^t R is 0 at
    (i, j) exactly when l(j) - l(i) = t (mod gamma), -inf elsewhere: row
    i of Q_t is the class of the nodes j with l(j) = l(i) + t (mod gamma).
    t = 0 gives Q_gamma.
    """
    rows: list[list[int] | None] = [None] * len(succ)  # rows[i][t % gamma] is row i of Q_t
    for comp in crit.scc.components:
        levels, gamma = _levels(succ, comp.nodes), comp.cyclicity
        classes = [sum(1 << v for v, level in levels.items() if level % gamma == r) for r in range(gamma)]
        for v, level in levels.items():
            rows[v] = classes[level % gamma :] + classes[: level % gamma]
    return lambda t: [0 if row is None else row[t % len(row)] for row in rows]


def _primitive_cover(crit: CritGraph | None, n: int) -> bool:
    """Whether crit covers all n nodes as one component of cyclicity 1.

    Then T = e, and T1 = max(e, 1), as is the largest critical row or
    column transient, e the exponent of crit's 0/1 matrix N: the least t
    with N^t = J, all ones, which _boolean_index returns (its one class
    mask is every node): analyze and _t1_at_ceiling read it so.  And
    every residue Q_t is M, which _residue reads with no product.
    Proof, with P = A - lambda, P+ its closure and Q_t = C (S - lambda)^t R.
    1. A critical walk i -> j and one j -> i close a critical walk, of
       weight 0, and concatenated critical walks are critical: every
       critical walk i -> j weighs the same, u(i, j), u is additive, and
       u = P+ as P+(i, j) + u(j, i) <= 0.  This step needs one component
       on every node only, at any cyclicity; by it a skeleton that
       extremal._inherit_input hands crit(a) takes a's P+ too.
    2. A walk of length t from i to j of weight P+(i, j), closed by a
       critical walk j -> i, weighs 0: each cycle it splits into is
       critical, and so is each of its arcs.  So P^t(i, j) = P+(i, j)
       where N^t(i, j) = 1, and P^t(i, j) < P+(i, j) elsewhere.
    3. M = P+ at gamma = 1, and each finite term of Q_t(i, j), at (k, l)
       with N^t(k, l) = 1, weighs u(i, k) + u(k, l) + u(l, j) = P+(i,
       j); there is one, so Q_t = P+ = M for t >= 1.  So also
       at a subgraph K of crit that meets the predicate (build_csr(a, K)):
       crit holds K, so it is one component on every node, of cyclicity
       dividing K's; M is the whole closure, and the terms run over
       critical walks of K, which has some of every length t >= 1.
    4. So a row or column of P^t meets Q_t (see _excess) iff it is all
       ones in N^t, and it stays so, as N has no zero row or column:
       T1 = max(e, 1), every row and column being critical.  A row retires
       in _sweep at the first t >= 1 where it meets Q_t, so T = e: for
       n >= 2, N^0 = I is not J, and at n = 1, Q_1 = P+ = I.
    """
    return crit is not None and len(crit.nodes) == n and len(crit.scc.components) == 1 and crit.cyclicity == 1


def _t1_at_ceiling(a: MaxPlusMatrix, bound: int) -> bool:
    """Whether weak_threshold_T1(a).t1 == bound and bound is a's ceiling c.

    c = min(Wi(n), DM(g, n)), g the critical girth.  The T1-only sweep
    runs from t = c - 1, on P^(c-1) by repeated squaring in O(log c)
    products, P = A - lambda, and its exactness is the sweep's (see
    _sweep): t1 = c exactly when t = c - 1 fails and t = c holds, two
    tests and one product of the failing rows.  c >= 2 for n >= 2, and
    c = 0 < t1 for n = 1.  A bound other than the ceiling gives False
    even when t1 equals it, and so does an acyclic a, which has no
    critical girth.  When _primitive_cover holds, t1 is the critical
    graph's exponent for n >= 2, and no power is taken.
    """
    triple = build_csr(a)
    if triple.crit is None or a.n == 1 or bound != _ceiling(triple):
        return False
    if _primitive_cover(triple.crit, a.n):
        return _boolean_index(triple.crit) == bound
    return _sweep(triple, False, bound - 1)[1] == bound


def crit_row_col_profile(a: MaxPlusMatrix) -> tuple[int, dict[int, int], dict[int, int]]:
    """Overall and per-index transients of the critical rows and columns.

    Returns (overall, row_transients, col_transients), read from the
    rows and cols of weak_threshold_T1.  The overall value is the max and
    never exceeds the weak expansion threshold.
    """
    expansion = weak_threshold_T1(a)
    if expansion.csr.crit is None:
        raise ValueError("no critical rows or columns: the digraph is acyclic")
    return _crit_rc_overall(expansion.rows, expansion.cols), expansion.rows, expansion.cols


def _crit_rc_overall(rows: dict[int, int], cols: dict[int, int]) -> int | None:
    return max([*rows.values(), *cols.values()], default=None)


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
    """Full transient report: lambda, crit summary, T, T1, bounds, flags.

    When the critical graph covers every node as one component of
    cyclicity 1, T = e and T1 = crit_rc_transient = max(e, 1), e its
    exponent (see _primitive_cover), read on bit rows with no CSR triple
    and no power of A.  Otherwise one sweep gives T1 and the critical row
    and column transients, and on strongly connected input T as well:
    past the ceiling it steps on until T, or hands over to the galloping
    search of _transient and returns what that finds, within twice the
    search's bound (see _sweep).  On other input it stops at T1, and T is
    None.
    """
    sp = spectrum(a)
    connected, lam, crit = sp._strongly_connected, sp.lam, sp.crit
    if _primitive_cover(crit, a.n):
        t = _boolean_index(crit)
        t1 = crit_rc = max(t, 1)
    else:
        t, t1, rows, cols = _sweep(build_csr(a), connected)
        crit_rc = _crit_rc_overall(rows, cols)
    wi = wielandt_bound(a.n)
    dm = None if crit is None else dm_bound(crit.girth, a.n)
    return TransientReport(
        n=a.n,
        lam=lam,
        g=None if crit is None else crit.girth,
        gamma=None if crit is None else crit.cyclicity,
        t=t if connected else None,
        t1=t1,
        wi=wi,
        dm=dm,
        attains_dm=t1 == dm,
        attains_wiel=t1 == wi,
        crit_rc_transient=crit_rc,
    )
