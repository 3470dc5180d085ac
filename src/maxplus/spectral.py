"""Maximum cycle mean, critical graph extraction, and visualization scalings.

The maximum cycle mean is computed by Karp's dynamic program, run once
over the whole digraph from a virtual source, on the int rows the
matrix holds (see `matrix`), each of its rows one product of the row
before by A in the kernel's _int_mul; no strongly connected components
are found for it.  Lambda is the one Fraction it builds, and its means
are compared as ints in one plain loop.  `spectrum`
turns A's rows into those of A - lambda once, at the lcm of A's scale
and lambda's denominator (_normalized), and keeps that integer form on
the returned Spectrum, together with its closure A'+ and whether the
digraph is strongly connected, which is read off that closure (no row
holds -inf); the CSR
terms and both scans in `csr` read them instead of scaling again.  A
matrix's spectrum is computed once: it is
stored on the matrix and returned by every later call, or handed over
whole from another matrix when its caller has proven the two spectra
equal, brought to its scale (see _inherit_spectrum, called by
`extremal`).  Both matrices name their nodes alike: no function here
reads a numbering.  One caller proves a spectrum instead: the generators
in `extremal` store on their skeleton a1 the spectrum that
_hamiltonian_spectrum certifies from a1's critical Hamiltonian cycle
0 -> 1 -> ... -> n-1 -> 0 and the potential tight along it, with no
Karp table and no closure (lambda is the cycle's mean, the critical
arcs are the arcs at their tight value, and P+(i, j) is the potential
difference); when the certificate fails the memo stays empty, and every
other matrix takes Karp and the closure.
The critical graph (all nodes and arcs of cycles attaining the maximum
mean) is read off the closure: an arc (i, j) is critical exactly when
it closes a zero-weight circuit, i.e. when a'_ij + (A'+)_ji = 0 for
the normalized A' = A - lambda, read in one plain pass of each row of
A' against a column of A'+, and two critical nodes share a
component exactly when they close one.  The grouping, which takes one
node's class at a time off its row and column of A'+, and the girths and
cyclicities, from the successor lists of those integer arcs, are
digraph's `_components` and `_decomposition`, which `scc_decompose`
runs on a closure of its own; no other component search exists.
`visualize` bumps the same rows of A - lambda.  At cyclicity 1
`csr` carves C and R from the closure A'+ itself.

A visualization is a diagonal scaling pushing every entry to at most the
cycle mean; a strict visualization additionally puts an entry *at* the
mean exactly on the critical arcs.  The construction here bumps all
non-critical arcs by a small exact epsilon (halved until the bumped
matrix still has nonpositive cycle means) and takes row maxima of the
bumped Kleene star as potentials; strictness then falls out of the bump,
and equality on critical arcs is forced by zero-weight critical cycles.
The postcondition is asserted on every call and failure raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm

from .digraph import SccDecomposition, _components, _decomposition, _successors, global_cyclicity, maximal_girth
from .matrix import (
    DiagonalScaling,
    MaxPlusMatrix,
    _finite_entries,
    _int_closure,
    _int_mul,
    kleene_star,
    mat_mul,  # unused here; perfbench/test_bench.py reads spectral.mat_mul
    scale,
)
from .semiring import BOTTOM, MaxPlusScalar


@dataclass(frozen=True)
class CritGraph:
    """The critical graph: nodes and arcs of all maximum-mean cycles.

    It is completely reducible (a disjoint union of its SCCs with no
    cross-component arcs); girth and cyclicity are the aggregate values
    over those components.
    """

    nodes: frozenset[int]
    arcs: frozenset[tuple[int, int]]
    scc: SccDecomposition
    girth: int
    cyclicity: int


@dataclass(frozen=True)
class Spectrum:
    """The cycle mean lam, the critical graph (None if acyclic), whether the
    digraph is strongly connected and, for a finite lam, the rows _norm of
    P = A - lam as ints (None: -inf) scaled by _d, and the rows _closure
    of P+ = P (+) P^2 (+) ..., from which the critical graph was read."""

    lam: MaxPlusScalar
    crit: CritGraph | None
    _strongly_connected: bool = field(default=False, compare=False, repr=False)
    _d: int | None = field(default=None, compare=False, repr=False)
    _norm: list[list] | None = field(default=None, compare=False, repr=False)
    _closure: list[list] | None = field(default=None, compare=False, repr=False)


def max_cycle_mean(a: MaxPlusMatrix) -> MaxPlusScalar:
    """Largest mean weight over all cycles; -inf when the digraph is acyclic."""
    best = _karp(a._rows, a._d)
    return BOTTOM if best is None else MaxPlusScalar(best)


def _karp(rows: list[list], d: int = 1) -> Fraction | None:
    """The largest cycle mean of int-or-None rows scaled by d, as the one
    Fraction built; None when the digraph is acyclic.

    Karp's dynamic program from a virtual source with a 0-weight arc to
    every node, which adds no cycle and reaches every node, so one pass
    over the whole digraph serves, whatever its components (Karp,
    Discrete Math. 23, 1978): dp[k][v] is the best weight of a walk of
    exactly k arcs ending at v, and the mean is max over v of min over
    k < n of (dp[n][v] - dp[k][v]) / (n - k), leaving out the -inf
    terms.  A walk of n arcs repeats a node, so some dp[n][v] is finite
    iff there is a cycle.  Each row dp[k + 1] is the one-row product
    dp[k] A by the kernel's _int_mul, so the n passes over the finite
    entries cost O(n m), never more than the n^3 closure `spectrum`
    takes next.
    """
    n = len(rows)
    finite = _finite_entries(rows)
    dp = [[0] * n]
    for _ in range(n):
        dp += _int_mul(dp[-1:], finite)
    # every quotient times the lcm L of 1..n is an integer: compare those
    big = lcm(*range(1, n + 1))
    steps = [big // (n - k) for k in range(n)]
    best = None
    for v, x in enumerate(dp[n]):
        if x is None:
            continue
        mean = x * steps[0]  # k = 0: dp[0][v] = 0
        for k in range(1, n):
            y = dp[k][v]
            if y is not None and (x - y) * steps[k] < mean:
                mean = (x - y) * steps[k]
        if best is None or mean > best:
            best = mean
    return None if best is None else Fraction(best, big * d)


def spectrum(a: MaxPlusMatrix) -> Spectrum:
    """The maximum cycle mean and, unless it is -inf, the critical graph.

    Computed once per matrix: the result is stored on a and returned again.
    """
    if a._spectrum is None:
        a._spectrum = _spectrum(a)
    return a._spectrum


def _spectrum(a: MaxPlusMatrix) -> Spectrum:
    """The spectrum of a, computed; with a finite cycle mean, the critical
    graph is read off the closure P+ (see _critical_graph_at).

    P+(i, j) is finite exactly when a walk of length >= 1 leads from i to
    j, so the digraph is strongly connected iff no row of P+ holds None.
    """
    lam = _karp(a._rows, a._d)
    if lam is None:  # one node without a loop is strongly connected, more are not
        return Spectrum(lam=BOTTOM, crit=None, _strongly_connected=a.n == 1)
    d_lam, norm = _normalized(a._d, a._rows, lam)
    closure = [row[:] for row in norm]
    _int_closure(closure)
    strongly_connected = all(None not in row for row in closure)
    return Spectrum(MaxPlusScalar(lam), _critical_graph_at(norm, closure), strongly_connected, d_lam, norm, closure)


def _inherit_spectrum(a: MaxPlusMatrix, sp: Spectrum) -> None:
    """Store on a sp's lambda, critical graph, strong connectivity and
    closure, all proven a's by its caller (see extremal._inherit_skeleton,
    and extremal._skeleton for the DM verdict's carved skeleton); a's rows
    of A - lambda are its own.  The closure comes
    to a's scale d as x * d // sp._d, exact whether d is a multiple of
    sp._d (a candidate) or divides it (a carved skeleton): x = sp._d * w,
    w the weight of a walk of a in A - lambda, and d * w is an int."""
    d, norm = _normalized(a._d, a._rows, sp.lam.value)
    closure = [[None if x is None else x * d // sp._d for x in row] for row in sp._closure]
    a._spectrum = Spectrum(
        lam=sp.lam, crit=sp.crit, _strongly_connected=sp._strongly_connected, _d=d, _norm=norm, _closure=closure
    )


def _hamiltonian_spectrum(a: MaxPlusMatrix) -> Spectrum | None:
    """The spectrum of a, certified by its Hamiltonian cycle 0 -> 1 -> ...
    -> n-1 -> 0, with no Karp table and no closure; None when a lacks an
    arc of that cycle or the cycle is not critical.  Equal in every field
    to _spectrum(a) when it is not None; the generators' skeletons, whose
    cycle is critical by construction, are its one caller's inputs.

    Let lam be the cycle's mean, P = A - lam, and phi the potential tight
    along the cycle: phi(0) = 0 and phi(i+1) = phi(i) + P(i, i+1), which
    closes at phi(n) = phi(0) as the cycle weighs 0 in P.  The certificate
    is that every finite arc has reduced weight P(i, j) + phi(i) - phi(j)
    <= 0, checked in one pass over the entries, which then yields:
    - lambda: the cycle gives lambda >= lam.  Around any cycle the phi
      terms telescope, so it weighs its reduced weights in P, <= 0: every
      cycle mean is <= lam, and lambda = lam.
    - the critical graph: a cycle of P-weight 0 takes only arcs of
      reduced weight 0.  Those arcs contain the Hamiltonian cycle, so
      each one (i, j) closes, with the cycle's path from j to i, a closed
      walk of reduced weight 0, which splits into cycles of weight 0.  So
      the critical arcs are exactly the arcs of reduced weight 0, and the
      critical graph is one component on all n nodes, strongly connected.
    - the closure: a walk from i to j weighs its reduced weights plus
      phi(j) - phi(i), so P+(i, j) <= phi(j) - phi(i), with equality on
      the cycle's path from i to j, of length n when i = j.
    If the cycle is critical its mean is lambda, and each arc (i, j) with
    the cycle's path back to i closes a walk of weight <= 0, the arc's
    reduced weight: so the certificate holds exactly then.
    """
    rows, n = a._rows, a.n
    cycle = [rows[i][(i + 1) % n] for i in range(n)]
    if None in cycle:
        return None
    lam = Fraction(sum(cycle), n * a._d)
    d, norm = _normalized(a._d, rows, lam)
    phi = [0, *accumulate(norm[i][i + 1] for i in range(n - 1))]
    closure = [[q - p for q in phi] for p in phi]
    arcs = []
    for i, (row, tight) in enumerate(zip(norm, closure)):
        for j, w in enumerate(row):
            if w is not None and w >= tight[j]:
                if w > tight[j]:
                    return None
                arcs.append((i, j))
    scc = _decomposition(_successors(n, arcs), [frozenset(range(n))])
    crit = CritGraph(frozenset(range(n)), frozenset(arcs), scc, maximal_girth(scc), global_cyclicity(scc))
    return Spectrum(MaxPlusScalar(lam), crit, True, d, norm, closure)


def _normalized(d: int, rows: list[list], lam: Fraction) -> tuple[int, list[list]]:
    """(d', new rows of A - lam scaled by d'), given A's rows scaled by d
    and a finite lam; d' is the lcm of d and lam's denominator."""
    d_lam = lcm(d, lam.denominator)
    lam_d = lam.numerator * (d_lam // lam.denominator)
    return d_lam, [[None if x is None else x * (d_lam // d) - lam_d for x in row] for row in rows]


def _cyclic_spectrum(a: MaxPlusMatrix) -> Spectrum:
    """spectrum(a), rejecting acyclic input."""
    sp = spectrum(a)
    if sp.crit is None:
        raise ValueError("critical graph undefined: the digraph is acyclic")
    return sp


def critical_graph(a: MaxPlusMatrix) -> CritGraph:
    """All nodes and arcs on cycles whose mean equals the maximum cycle mean."""
    return _cyclic_spectrum(a).crit


def _critical_graph_at(norm: list[list], closure: list[list]) -> CritGraph:
    """The critical graph, given the scaled int rows of A - lambda and of
    their closure P+, read in one plain pass of each row of A - lambda
    against the column of P+ that closes its arcs.

    So are its components: critical nodes i and j share one iff P+(i, j)
    and P+(j, i) are finite and sum to 0.  If they do, the best walks
    i -> j -> i close a walk of weight 0, which splits into cycles of
    weight <= 0, each of which weighs 0 and so is critical.  Conversely,
    critical walks i -> j -> i close a walk of critical arcs, which
    weighs 0 (a visualization puts each critical arc at 0 and keeps the
    weight of a closed walk), and no closed walk weighs more.  So the
    nodes j joined to a critical i are critical themselves, and i's
    component is read off row i and column i of P+ alone, one node at a
    time, by digraph._components, ordered by least node; their girths
    and cyclicities come from digraph._decomposition on the successor
    lists of the critical arcs.
    """
    cols = list(zip(*closure))
    arcs = []
    for i, (row, col) in enumerate(zip(norm, cols)):  # (i, j) is critical iff w + P+(j, i) = 0
        for j, (w, back) in enumerate(zip(row, col)):
            if w is not None and back is not None and w + back == 0:
                arcs.append((i, j))
    nodes = set(chain.from_iterable(arcs))

    def joined(i: int) -> set[int]:  # the j with P+(i, j) + P+(j, i) = 0
        return {j for j, (x, y) in enumerate(zip(closure[i], cols[i])) if x is not None and y is not None and x + y == 0}

    comps = _components(nodes, joined)
    component = {i: comp for comp in comps for i in comp}
    # Complete reducibility: every critical arc stays inside one component.
    for (i, j) in arcs:
        if j not in component[i]:
            raise AssertionError(f"critical arc ({i},{j}) crosses components")
    scc = _decomposition(_successors(len(norm), arcs), comps)
    return CritGraph(frozenset(nodes), frozenset(arcs), scc, maximal_girth(scc), global_cyclicity(scc))


def critical_components(crit: CritGraph) -> list[CritGraph]:
    """The critical graph split into its strongly connected components."""
    out = []
    for c in crit.scc.components:  # no critical arc leaves its component
        arcs = frozenset(arc for arc in crit.arcs if arc[0] in c.nodes)
        out.append(CritGraph(c.nodes, arcs, SccDecomposition((c,)), c.girth, c.cyclicity))
    return out


def visualize(a: MaxPlusMatrix) -> tuple[DiagonalScaling, MaxPlusMatrix]:
    """A strict visualization scaling d and the scaled matrix.

    Returns (d, b) with b = scale(a, d) satisfying b_ij <= lambda for all
    entries and b_ij = lambda exactly on the critical arcs.  The choice of
    d is not unique; only this postcondition is contractual.
    """
    sp = spectrum(a)
    if sp.crit is None:
        raise ValueError("visualization undefined: the digraph is acyclic")
    lam, crit = sp.lam, sp.crit
    k = 0
    while True:  # the rows of A - lambda with eps = 2^-k on the non-critical arcs, scaled by d * 2^k
        bumped = [
            [None if w is None else w << k if (i, j) in crit.arcs else (w << k) + sp._d for j, w in enumerate(row)]
            for i, row in enumerate(sp._norm)
        ]
        if not _karp(bumped) > 0:
            break
        k += 1

    star = kleene_star(MaxPlusMatrix._from_ints(sp._d << k, bumped))
    potentials = [max(x for x in row if x is not None) for row in star.raw()]
    d = DiagonalScaling([MaxPlusScalar(p) for p in potentials])
    b = scale(a, d)

    if not _check_visualized(b, lam, crit):
        raise AssertionError("strict visualization postcondition failed")
    return d, b


def _check_visualized(a: MaxPlusMatrix, lam: MaxPlusScalar, crit: CritGraph) -> bool:
    """visualize's postcondition: every entry of a lies at lambda on the
    critical arcs of crit, and strictly below it (or at -inf) elsewhere."""
    lv = lam.value
    return all(
        w == lv if (i, j) in crit.arcs else w is None or w < lv
        for i, row in enumerate(a.raw())
        for j, w in enumerate(row)
    )
