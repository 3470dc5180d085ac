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
row, T2 the time after which C S^t R dominates B^t.  An active row that
C S^t R exceeds nowhere is that row of C S^t R (+) B^t, and only its B^t
part can still move: the sweep multiplies only its entries above
C S^t R, onto the same row of C S^(t+1) R.  Past the ceiling on T1 it
steps on while that costs less than the galloping search of
_transient would, and hands over to the search when it does not: the
sweep returns T either way.  Whether T1 equals that ceiling is decided
by the same sweep started one power below the ceiling, at two powers
alone (see _t1_at_ceiling); the generators in `extremal` check their
candidates so.
When the critical graph covers every node, A^t never exceeds C S^t R,
and analyze finds T1 and T by one galloping search for the first t at
which the two are equal, with no sweep (see analyze and _transient).  On
a critical graph that covers every node as one component of cyclicity
1, that t is its exponent (see _primitive_cover), found by
_boolean_index on packed ints, each 0/1 matrix on m nodes one int of
m^2 bits, row i at bits i*m to i*m + m - 1, multiplied in m big-int
steps (_bit_mul): analyze and _t1_at_ceiling take no power, and every
residue C S^t R - t*lambda is M itself.

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
comparison, and the public C, S, R and the values csr_at returns are
matrices of int rows again, at the triple's scale reduced to the least;
no Fraction is built.

A triple is built only as far as it is read: build_csr computes M
alone, C, S and R are carved when the properties are read, and each
residue the first time csr_at or the sweep reads it, as C R at r =
gamma and as one product by P of the one before elsewhere (see
_residue).  When the triple's (sub)graph covers every node as one
component, at any cyclicity, no residue costs a product: C R is M
itself, and each other residue is the one before with row i shifted
along one arc (i, s), P(i, s) plus its row s; at cyclicity 1 every
residue is M.  The triple of a
matrix's whole critical graph is built once per matrix and stored on
it, like its spectrum, or inherited with it (see _inherit_triple).
C S^t R is read as int rows (_int_csr_at).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import compress, count
from operator import ne

from .bounds import dm_bound, wielandt_bound
from .digraph import _levels, _successors
from .matrix import (
    MaxPlusMatrix,
    _finite_entries,
    _int_closure,
    _int_mul,
    _int_power,
    _scalar_text,
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
        return MaxPlusMatrix._from_ints(self._d, [[x if j in nodes else None for j, x in enumerate(row)] for row in self._m])

    @property
    def r(self) -> MaxPlusMatrix:
        nodes = () if self.crit is None else self.crit.nodes
        return MaxPlusMatrix._from_ints(self._d, [row if i in nodes else [None] * self.n for i, row in enumerate(self._m)])

    @property
    def s(self) -> MaxPlusMatrix:
        rows = [[None] * self.n for _ in range(self.n)]
        if self.crit is not None:
            lam = self.lam.value
            lam_d = lam.numerator * (self._d // lam.denominator)
            for i, j in self.crit.arcs:
                rows[i][j] = self._norm[i][j] + lam_d
        return MaxPlusMatrix._from_ints(self._d, rows)


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
    read.  When the triple's (sub)graph K is one component on all n nodes
    (_cover), at any cyclicity, no product is taken: Q_gamma is M itself,
    and Q_k is Q_(k-1) with each row i replaced by P(i, s) + row s of
    Q_(k-1), s the first successor of i in K (see the lemma on covers
    below).  At gamma = 1 every Q_t is M; read its rows only.

    Lemma on covers.  Let K be one component on all n nodes, of
    cyclicity gamma.  By _excess's proof, read at every length = k
    (mod gamma) and not only k, Q_k(i, j) is the weight of a heaviest
    walk from i to j of positive length = k (mod gamma) through a node of
    K, here any such walk: each term M(i, a) + (S - lambda)^k(a, b) +
    M(b, j) is one, and every one is bounded by a term.  M(i, j) is the
    weight of a heaviest walk of positive length = 0 (mod gamma), so
    Q_gamma = M.  Let (i, s) be an arc of K and 1 <= k < gamma.  (>=)
    The arc followed by a walk from s of positive length = k - 1 is a
    walk from i of length = k, so Q_k(i, j) >= P(i, s) + Q_(k-1)(s, j).
    (<=) K has a walk Z from s back to i of length = -1 (mod gamma),
    which the arc (i, s) closes into a closed walk of K, of weight 0, so
    w(Z) = -P(i, s).  A walk W from i to j of length = k gives the walk
    Z W from s, of positive length = k - 1, so w(W) = w(Z W) + P(i, s)
    <= Q_(k-1)(s, j) + P(i, s).  This is step 3 of _primitive_cover at
    any cyclicity.

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
    m, crit = triple._m, triple.crit
    if not _cover(crit, triple.n):
        if k == triple.gamma:
            rows = _int_mul(m, _finite_entries([row if i in crit.nodes else [] for i, row in enumerate(m)]))
        else:
            rows = _int_mul(_residue(triple, k - 1), _finite_entries(triple._norm))
    elif k == triple.gamma:
        rows = m
    else:
        before, rows = _residue(triple, k - 1), []
        for i, (s, *_) in enumerate(_successors(triple.n, crit.arcs)):
            p = triple._norm[i][s]
            rows.append([None if x is None else x + p for x in before[s]])
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
    return MaxPlusMatrix._from_ints(d, rows)


def _below_csr_at_one(triple: CsrTriple, entries: list[tuple[int, int, int]], e: int) -> bool:
    """Does each entry x/e at (i, j), x an int scaled by e, lie strictly
    below CSR at t = 1?  With that entry of CSR as an int y scaled by d
    (see _int_csr_at), it does iff y is finite and x*d < y*e."""
    d, rows = _int_csr_at(triple, 1)
    return all(rows[i][j] is not None and x * d < rows[i][j] * e for i, j, x in entries)


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
    return MaxPlusMatrix._from_ints(
        a._d, [[x if keep[i] and keep[j] else None for j, x in enumerate(row)] for i, row in enumerate(a._rows)]
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
    return _transient(sp._norm, 0, _int_identity(a.n), partial(_residue, build_csr(a)), _int_product)


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
    Q_(t+1).  With transient it stops when no row is left, with T.  An
    active row that holds at t (Q_t <= P^t on it, see below) is multiplied
    at its entries above Q_t alone, onto its row of Q_(t+1) (see
    _above and _int_mul's start rows); a failing row is multiplied in full.

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

    Lemma (holding rows).  If row i holds at t >= 1, row i of P^(t+1) is
    row i of Q_(t+1) (+) the product by P of row i of P^t with -inf at
    each entry where it equals Q_t.  Proof.  Row i of P^t is >= that of
    Q_t, so it differs from it exactly where it exceeds it.  An entry k
    where the two are equal adds P^t(i, k) + P(k, j) <= (Q_t P)(i, j) =
    Q_(t+1)(i, j) to entry (i, j) of P^(t+1), by the lemma above, and
    Q_(t+1)(i, j) <= P^(t+1)(i, j) as the row still holds at t + 1 (see
    weak_threshold_T1): dropping those entries and adding Q_(t+1) changes
    no entry of the row.

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
    A holding row, multiplied at its entries S above Q_t alone, makes n
    plus the sum over k in S of nnz(P_k), P_k row k of P, and is counted
    at n + nnz(P) too: the bound below needs only an upper bound on the
    work of the steps, and T is exact either way.

    The bound, in units of M.  From t' >= 1 with u = T - t' >= 1, the
    search makes G(u) = 3*bit_length(u - 1) products for u >= 2, and one
    for u = 1 (see _transient).  Let u = T - c.  If all rows retire
    first, the rule held after u - 1 steps, which cost at most
    2*bit_length(u - 1)*M, at most two thirds of G(u)*M for u >= 2.  If it
    hands over after s >= 1 steps, then 1 <= s < u, those steps cost at
    most 2*bit_length(s - 1)*M plus a step, and the search from c + s at
    most G(u - s)*M <= G(u)*M.  Plus a step, that is at most 5/3 of the
    bound G(u)*M on the search from c; T is exact either way.
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
            failing, over = _excess(triple, t, at, failing)
            if failing:
                t1 = t + 1
                rows.update((i, t + 1) for i in failing if i in rows)
                cols.update(dict.fromkeys(over, t + 1))
        if not transient and (not failing or t >= ceiling):
            return None, t1, rows, cols
        if transient and t >= ceiling:
            square = square if spent else _square_work(at)
            if spent > 2 * (t - ceiling).bit_length() * square:
                return _transient(norm, t, at, partial(_residue, triple), _int_product), t1, rows, cols
            spent += n + len(active) * (n + nnz)
        left = active if transient else failing
        nxt = _residue(triple, t + 1)[:]  # the retired rows of P^(t+1); rows neither left nor retired are not read
        if transient:  # a holding row steps its entries above Q_t alone, onto its row of Q_(t+1)
            failed, blank = set(failing), [None] * n
            arows = [at[i] if i in failed else _above(at[i], residue[i]) for i in left]
            starts = [blank if i in failed else nxt[i] for i in left]
        else:
            arows, starts = [at[i] for i in left], None
        for i, row in zip(left, _int_mul(arows, step, starts)):
            nxt[i] = row
        at = nxt


def _transient(p, t: int, at, residue: Callable, mul: Callable) -> int:
    """Least T >= t with P^T = Q_T, given P as p, at = P^t, residue(T) =
    Q_T and mul, the product of two matrices in that form; the equality
    fails below t and, once it holds, holds from there on.

    The one search over squares: it gallops by probing t + 1, t + 2,
    t + 4, ..., at times P, P^2, P^4, ..., up to the first probe that
    meets Q, then bisects back between the last two probes with the
    smaller squares, one product a probe.  From t = 0, at = I, the probes
    are the squares themselves, with no product.  With u = T - t >= 2
    and b = bit_length(u - 1), the gallop squares b times and the bisection
    probes b - 1 times: 2*b - 1 products from t = 0, and 3*b from t >= 1,
    whose gallop also makes b + 1 probes; u = 1 takes one probe (none
    from t = 0).  Its matrices are lists of int rows (_int_product) or
    0/1 matrices packed in one int each (_bit_mul).  The search needs
    only that P's powers end periodic, so that some T exists: T1 is
    reached within the ceiling on every input whose nodes are all
    critical (see analyze), and on strongly connected input T exists
    (see _sweep).
    """
    if at == residue(t):
        return t
    squares = [p]  # squares[k] is P^(2^k)
    while (probe := squares[-1] if t == 0 else mul(at, squares[-1])) != residue(t + (1 << (len(squares) - 1))):
        last = probe
        squares.append(mul(squares[-1], squares[-1]))
    if len(squares) == 1:
        return t + 1
    t, at = t + (1 << (len(squares) - 2)), last
    for k in reversed(range(len(squares) - 2)):  # T - t is in (0, 2^(k+1)]
        probe = mul(at, squares[k])
        if probe != residue(t + (1 << k)):
            t, at = t + (1 << k), probe
    return t + 1


def _int_product(x: list[list], y: list[list]) -> list[list]:
    """The max-plus product of int rows x and y, for _transient."""
    return _int_mul(x, _finite_entries(y))


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


def _excess(triple: CsrTriple, t: int, at: list[list], rows: list[int]) -> tuple[list[int], list[int]]:
    """(failing, cols): the given rows i, in their order, at which the
    residue Q_t of t exceeds at = P^t at some entry (i, j), and the
    critical columns j with such an entry; what the sweep reads.  A row's
    scan ends at its first excess, and a column is scanned on the failing
    rows alone, as no other row has one.

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
    failing = [i for i in rows if residue[i] != at[i] and any(map(_exceeds, residue[i], at[i]))]
    return failing, [j for j in triple.crit.nodes if any(_exceeds(residue[i][j], at[i][j]) for i in failing)]


def _exceeds(q: int | None, p: int | None) -> bool:
    """Whether the int q exceeds p, None being -inf."""
    return q is not None and (p is None or q > p)


def _above(row: list, q: list) -> list:
    """row with -inf wherever it equals q: where row >= q, its entries
    that exceed q."""
    kept = [None] * len(row)
    for k in compress(range(len(row)), map(ne, row, q)):
        kept[k] = row[k]
    return kept


def _boolean_index(crit: CritGraph) -> int:
    """Transient of the critical graph as a 0/-inf matrix (max over components).

    Each component is strongly connected and every cycle in it weighs 0,
    so its 0/-inf matrix has cycle mean 0, is its own A - lambda, and has
    the whole component as critical graph, of cyclicity comp.cyclicity.
    The matrix is 0/-inf, so its powers are too: on m = max(nodes) + 1
    nodes each is one packed int of m^2 bits, row i at bits i*m to i*m +
    m - 1, bit i*m + j set where entry (i, j) is 0, and a product is
    _bit_mul's m big-int steps.  The residue Q_t is packed the same way,
    row i the mask of a cyclic class (see _class_masks).  No arc joins
    two components, so a power's rows are those of each component's
    powers, and P^t = Q_t for all components at once exactly when t is
    at least each component's transient, from which that equality holds
    (see _sweep): _transient, run on packed ints from t = 0, finds that
    first t, the largest transient.
    """
    m = max(crit.nodes) + 1
    p = sum(1 << (i * m + j) for i, j in crit.arcs)
    at = sum(1 << (i * m + i) for i in crit.nodes)  # P^0 on the critical rows
    return _transient(p, 0, at, _class_masks(_successors(m, crit.arcs), crit), partial(_bit_mul, m))


def _bit_mul(m: int, x: int, y: int) -> int:
    """The Boolean product of two 0/1 matrices on m nodes, each packed in
    one int, row i at bits i*m to i*m + m - 1 (see _boolean_index).

    Entry (i, j) of the product ORs x(i, k) AND y(k, j) over k.  For each
    k, ((x >> k) & E) * (2^m - 1), E = the sum of 2^(i*m), spreads column
    k of x into full rows: bit i*m becomes the m bits of row i, with no
    carry, as each product stays in its row.  ((y >> k*m) & (2^m - 1)) *
    E copies row k of y into every row.  Their AND is the terms of k, and
    the product ORs them: m big-int steps, whatever the bits set.  The
    loop shifts x by 1 and y by m at each step in place of shifting by k
    and k*m.
    """
    full = (1 << m) - 1
    e = ((1 << m * m) - 1) // full
    z = 0
    for _ in range(m):
        if col := x & e:
            z |= (col * full) & ((y & full) * e)
        x >>= 1
        y >>= m
    return z


def _class_masks(succ: list[list[int]], crit: CritGraph) -> Callable[[int], int]:
    """t -> the residue Q_t of the critical graph's 0/-inf matrix packed as
    _boolean_index packs it, on m = len(succ) nodes, 0 off the critical
    nodes, given its successor lists; each residue is packed once per t
    modulo crit's cyclicity, the lcm of its components'.

    Lemma.  In a component of cyclicity gamma, with l its BFS levels
    (digraph._levels), every arc (u, v) has l(v) = l(u) + 1 (mod gamma),
    so every walk from i to j has length = l(j) - l(i), and past some
    length there is one of each such length.  So M, the closure of
    P^gamma, is 0 exactly on the pairs of one cyclic class, and Q_t = C S^t R is 0 at
    (i, j) exactly when l(j) - l(i) = t (mod gamma), -inf elsewhere: row
    i of Q_t is the class of the nodes j with l(j) = l(i) + t (mod gamma).
    t = 0 gives Q_gamma.
    """
    m = len(succ)
    rows: list[list[int] | None] = [None] * m  # rows[i][t % gamma] is the bit row i of Q_t
    for comp in crit.scc.components:
        levels, gamma = _levels(succ, comp.nodes), comp.cyclicity
        classes = [sum(1 << v for v, level in levels.items() if level % gamma == r) for r in range(gamma)]
        for v, level in levels.items():
            rows[v] = classes[level % gamma :] + classes[: level % gamma]
    packed = cache(lambda t: sum(row[t % len(row)] << (i * m) for i, row in enumerate(rows) if row is not None))
    return lambda t: packed(t % crit.cyclicity)


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
       on every node only, at any cyclicity; by it a skeleton carved out
       of a that holds crit(a) takes a's P+ too (see extremal._skeleton).
    2. A walk of length t from i to j of weight P+(i, j), closed by a
       critical walk j -> i, weighs 0: each cycle it splits into is
       critical, and so is each of its arcs.  So P^t(i, j) = P+(i, j)
       where N^t(i, j) = 1, and P^t(i, j) < P+(i, j) elsewhere.
    3. M = P+ at gamma = 1, and Q_t = Q_gamma = M for t >= 1, by
       _residue's lemma on covers, at crit or at a subgraph K of crit
       that meets the predicate (build_csr(a, K)).
    4. So P^t = Q_t exactly when N^t = J, by steps 2 and 3 for t >= 1,
       and at t = 0, where Q_0 reads Q_gamma = P+: P^0 = I is P+ only at
       n = 1, where N^0 = J.  By analyze's lemma, then, T = e and T1 =
       crit_rc_transient = max(e, 1).
    """
    return _cover(crit, n) and crit.cyclicity == 1


def _cover(crit: CritGraph | None, n: int) -> bool:
    """Whether crit covers all n nodes as one component, at any cyclicity."""
    return crit is not None and len(crit.nodes) == n and len(crit.scc.components) == 1


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
    graph's exponent for n >= 2, and no power is taken.  On any other
    critical graph that covers every node as one component, as on a
    case-n Wielandt candidate, the two residues read cost no product (see
    _residue): what is left is P^(c-1) and the one product of the
    failing rows.
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
            "lambda": _scalar_text(self.lam),
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

    When the critical graph covers every node, one search gives T1 and T:
    T' is the least t >= 0 with P^t = Q_t, P = A - lambda, Q_t the
    residue of t (see _residue; Q_0 reads Q_gamma), found by _transient
    from t = 0.  Then T1 = crit_rc_transient = max(T', 1), and T = T' on
    strongly connected input.  On a primitive cover (one component of
    cyclicity 1) T' is the critical graph's exponent, read on packed
    ints with no CSR triple and no power of A (see _primitive_cover); on
    any other cover the search runs on int rows against the triple's
    residues, which cost no product there (see _residue).  Otherwise one sweep gives T1 and the critical row and
    column transients, and on strongly connected input T as well: past
    the ceiling it steps on until T, or hands over to the search and
    returns what that finds (see _sweep).  On other input it stops at
    T1, and T is None.

    Lemma.  If every node is critical, P^t <= Q_t for every t >= 1, and
    the expansion holds at t exactly when P^t = Q_t; that equality, once
    it holds at some t >= 0, holds at every later t.  Proof.  B - lambda
    is -inf on every row and column, so _excess gives P^t <= Q_t (+)
    (B - lambda)^t = Q_t, and the expansion, which holds iff Q_t <= P^t,
    holds iff P^t = Q_t.  By _sweep's lemma, Q_t P = Q_(t+1) for t >= 1
    and Q_gamma P = Q_1, so P^t = Q_t gives P^(t+1) = Q_(t+1), from t = 0
    too.  Hence the powers end periodic, from T1 <= the ceiling on, and
    the search finds T'.  T1, the least t >= 1 at which the expansion
    holds, is max(T', 1).  Every row and column is critical, and the
    expansion holds at t exactly when it holds in each row, so the largest
    row transient is T1, and no column's exceeds it: crit_rc_transient =
    T1.  A row of P^t is periodic
    from t >= 1 exactly when it equals the row of Q_t (_sweep's lemma),
    so max(T, 1) = max(T', 1).  When that is 1, P^gamma = Q_gamma, and
    T = 0 exactly when P^gamma = P^0 = I, that is when Q_0 = I: T' = 0.
    """
    sp = spectrum(a)
    connected, lam, crit = sp._strongly_connected, sp.lam, sp.crit
    if crit is not None and len(crit.nodes) == a.n:
        if _primitive_cover(crit, a.n):
            t = _boolean_index(crit)
        else:
            t = _transient(sp._norm, 0, _int_identity(a.n), partial(_residue, build_csr(a)), _int_product)
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
