"""Maximum cycle mean, critical graph extraction, and visualization scalings.

The maximum cycle mean is computed by Karp's dynamic program, run once
over the whole digraph from a virtual source, on the exactly scaled
integer entries, each of its rows one product of the row before by A in
the kernel's _int_mul; no strongly connected components are found for
it.  `spectrum` scales A once, turns the rows into those of A - lambda,
and keeps that integer form on the returned Spectrum, together with its
closure A'+ and whether the digraph is strongly connected, which is
read off that closure; the CSR terms and both scans in `csr` read them
instead of scaling again.  A matrix's spectrum is computed once: it is
stored on the matrix and returned by every later call, or handed over
when its caller has proven it: another matrix's, brought to its scale
and read under a numbering (see _inherit_spectrum), or a lambda and a
relabeled critical graph with a closure of its own (see
_inherit_critical and _relabeled, called by `extremal`).
The critical graph (all nodes and arcs of cycles attaining the maximum
mean) is read off the closure: an arc (i, j) is critical exactly when
it closes a zero-weight circuit, i.e. when a'_ij + (A'+)_ji = 0 for
the normalized A' = A - lambda, and two critical nodes share a
component exactly when they close one.  The girths and cyclicities of
the components come from the successor lists of those integer arcs,
and `visualize` bumps the same rows of A - lambda.  At cyclicity 1
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
from math import lcm

from .digraph import (
    SccDecomposition,
    SccInfo,
    _component_cyclicity,
    _component_girth,
    _successors,
    global_cyclicity,
    maximal_girth,
)
from .matrix import (
    DiagonalScaling,
    MaxPlusMatrix,
    _finite_entries,
    _int_closure,
    _int_mul,
    _scaled,
    _unscaled,
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
    d, (rows,) = _scaled([a])
    best = _karp(rows)
    return BOTTOM if best is None else MaxPlusScalar(best / d)


def _karp(rows: list[list]) -> Fraction | None:
    """The largest cycle mean of scaled int-or-None rows, in their units;
    None when the digraph is acyclic.

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
    means = [
        min((x - dk[v]) * (big // (n - k)) for k, dk in enumerate(dp[:n]) if dk[v] is not None)
        for v, x in enumerate(dp[n])
        if x is not None
    ]
    return Fraction(max(means), big) if means else None


def spectrum(a: MaxPlusMatrix) -> Spectrum:
    """The maximum cycle mean and, unless it is -inf, the critical graph.

    Computed once per matrix: the result is stored on a and returned again.
    """
    if a._spectrum is None:
        a._spectrum = _spectrum(a)
    return a._spectrum


def _spectrum(a: MaxPlusMatrix) -> Spectrum:
    d, (rows,) = _scaled([a])
    best = _karp(rows)
    if best is None:  # one node without a loop is strongly connected, more are not
        return Spectrum(lam=BOTTOM, crit=None, _strongly_connected=a.n == 1)
    return _finite_spectrum(d, rows, best / d)


def _finite_spectrum(d: int, rows: list[list], lam: Fraction, crit: CritGraph | None = None) -> Spectrum:
    """The spectrum of the matrix whose rows, scaled by d, are given, with
    its finite cycle mean lam, and crit its critical graph unless it is
    None: then it is read off the closure (see _critical_graph_at).

    P+(i, j) is finite exactly when a walk of length >= 1 leads from i to
    j, so the digraph is strongly connected iff every entry of P+ is.
    """
    d_lam, norm = _normalized(d, rows, lam)
    closure = [row[:] for row in norm]
    _int_closure(closure)
    if crit is None:
        crit = _critical_graph_at(norm, closure)
    strongly_connected = all(x is not None for row in closure for x in row)
    return Spectrum(MaxPlusScalar(lam), crit, strongly_connected, d_lam, norm, closure)


def _inherit_spectrum(a: MaxPlusMatrix, sp: Spectrum, numbering: tuple | None = None, crit: CritGraph | None = None):
    """Store on a sp's lambda, critical graph (or crit, it relabeled by
    numbering), strong connectivity and closure read under numbering, all
    proven a's by its caller (see extremal._inherit_skeleton and
    _inherit_input); a's rows of A - lambda are its own.  The closure
    comes to a's scale d as x * d // sp._d, exact whether d is a multiple
    of sp._d (a candidate) or divides it (a carved skeleton): x = sp._d * w,
    w the weight of a walk of a in A - lambda, and d * w is an int."""
    d, (rows,) = _scaled([a])
    d, norm = _normalized(d, rows, sp.lam.value)
    order = range(a.n) if numbering is None else numbering
    closure = [[None if (x := sp._closure[i][j]) is None else x * d // sp._d for j in order] for i in order]
    a._spectrum = Spectrum(
        lam=sp.lam, crit=crit or sp.crit, _strongly_connected=sp._strongly_connected, _d=d, _norm=norm, _closure=closure
    )


def _inherit_critical(a: MaxPlusMatrix, lam: MaxPlusScalar, crit: CritGraph) -> None:
    """Store on a the spectrum of cycle mean lam and critical graph crit,
    both proven a's by its caller (see extremal._inherit_input); it
    computes only its own rows of A - lambda, their closure and strong
    connectivity."""
    d, (rows,) = _scaled([a])
    a._spectrum = _finite_spectrum(d, rows, lam.value, crit)


def _relabeled(crit: CritGraph, numbering: tuple[int, ...]) -> CritGraph:
    """crit with original node numbering[p] renamed p, the components
    ordered by their least node again; girths and cyclicities stay."""
    pos = {node: p for p, node in enumerate(numbering)}.get
    comps = [SccInfo(frozenset(map(pos, c.nodes)), c.girth, c.cyclicity) for c in crit.scc.components]
    scc = SccDecomposition(tuple(sorted(comps, key=lambda c: min(c.nodes))))
    arcs = frozenset((pos(i), pos(j)) for i, j in crit.arcs)
    return CritGraph(frozenset(map(pos, crit.nodes)), arcs, scc, crit.girth, crit.cyclicity)


def _normalized(d: int, rows: list[list], lam: Fraction) -> tuple[int, list[list]]:
    """(d', rows of A - lam scaled by d'), given A's rows scaled by d (see
    _scaled) and a finite lam; d' is the lcm of d and lam's denominator."""
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
    their closure P+.

    So are its components: critical nodes i and j share one iff P+(i, j)
    and P+(j, i) are finite and sum to 0.  If they do, the best walks
    i -> j -> i close a walk of weight 0, which splits into cycles of
    weight <= 0, each of which weighs 0 and so is critical.  Conversely,
    critical walks i -> j -> i close a walk of critical arcs, which
    weighs 0 (a visualization puts each critical arc at 0 and keeps the
    weight of a closed walk), and no closed walk weighs more.  The
    components are ordered by their least node; their girths and
    cyclicities come from the successor lists of the critical arcs.
    """

    def closes(i: int, j: int, w: int | None) -> bool:  # w + P+(j, i) = 0
        return w is not None and closure[j][i] is not None and w + closure[j][i] == 0

    arcs = {(i, j) for i, row in enumerate(norm) for j, w in enumerate(row) if closes(i, j, w)}
    nodes = {i for (i, j) in arcs} | {j for (i, j) in arcs}
    component: dict[int, frozenset[int]] = {}
    for i in nodes:
        if i not in component:
            comp = frozenset(j for j in nodes if closes(i, j, closure[i][j]))
            component.update(dict.fromkeys(comp, comp))
    # Complete reducibility: every critical arc stays inside one component.
    for (i, j) in arcs:
        if component[i] is not component[j]:
            raise AssertionError(f"critical arc ({i},{j}) crosses components")
    succ = _successors(len(norm), arcs)
    comps = sorted(set(component.values()), key=min)
    scc = SccDecomposition(tuple(SccInfo(c, _component_girth(succ, c), _component_cyclicity(succ, c)) for c in comps))
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
    nraw = _unscaled(sp._norm, sp._d).raw()

    eps = Fraction(1)
    while True:
        braw = [
            [
                None
                if w is None
                else (w if (i, j) in crit.arcs else w + eps)
                for j, w in enumerate(row)
            ]
            for i, row in enumerate(nraw)
        ]
        bumped = MaxPlusMatrix._from_raw(braw)
        if not max_cycle_mean(bumped) > MaxPlusScalar(0):
            break
        eps /= 2

    star = kleene_star(bumped)
    potentials = [max(x for x in row if x is not None) for row in star.raw()]
    d = DiagonalScaling([MaxPlusScalar(p) for p in potentials])
    b = scale(a, d)

    if not _check_visualized(b, lam, crit, strict=True):
        raise AssertionError("strict visualization postcondition failed")
    return d, b


def _check_visualized(a: MaxPlusMatrix, lam: MaxPlusScalar, crit: CritGraph, strict: bool) -> bool:
    lv = lam.value
    for i, row in enumerate(a.raw()):
        for j, w in enumerate(row):
            if w is None:
                if (i, j) in crit.arcs:
                    return False
                continue
            if w > lv:
                return False
            if (i, j) in crit.arcs:
                if w != lv:
                    return False
            elif strict and w == lv:
                return False
    return True


def _visualized(a: MaxPlusMatrix, strict: bool) -> bool:
    sp = spectrum(a)
    if sp.crit is None:
        raise ValueError("visualization predicates need a finite cycle mean")
    return _check_visualized(a, sp.lam, sp.crit, strict)


def is_visualized(a: MaxPlusMatrix) -> bool:
    """Every entry <= lambda, with entries on critical arcs equal to lambda."""
    return _visualized(a, strict=False)


def is_strictly_visualized(a: MaxPlusMatrix) -> bool:
    """Visualized with equality to lambda exactly on the critical arcs."""
    return _visualized(a, strict=True)
