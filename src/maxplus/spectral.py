"""Maximum cycle mean, critical graph extraction, and visualization scalings.

The maximum cycle mean is computed by Karp's dynamic program run per
strongly connected component, on the exactly scaled integer entries.
The critical graph (all nodes and arcs of cycles attaining the maximum
mean) is read off the Kleene closure of the mean-normalized matrix: an
arc (i, j) is critical exactly when it closes a zero-weight circuit,
i.e. when a'_ij + (A'+)_ji = 0 for the normalized A'.

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

from dataclasses import dataclass
from fractions import Fraction

from .digraph import (
    SccDecomposition,
    WeightedDigraph,
    associated_digraph,
    global_cyclicity,
    maximal_girth,
    scc_decompose,
)
from .matrix import (
    DiagonalScaling,
    MaxPlusMatrix,
    _scaled,
    kleene_star,
    mat_mul,
    scalar_times,
    scale,
)
from .semiring import BOTTOM, MaxPlusScalar, negate


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
    lam: MaxPlusScalar
    crit: CritGraph | None


def max_cycle_mean(a: MaxPlusMatrix) -> MaxPlusScalar:
    """Largest mean weight over all cycles; -inf when the digraph is acyclic."""
    g = associated_digraph(a)
    d, (rows,), _ = _scaled([a])
    best: Fraction | None = None
    for comp in scc_decompose(g).components:
        if comp.girth is None:
            continue
        lam = _karp_scc(rows, sorted(comp.nodes))
        if best is None or lam > best:
            best = lam
    return BOTTOM if best is None else MaxPlusScalar(best / d)


def _karp_scc(rows, nodes: list[int]) -> Fraction:
    """Karp's max-mean-cycle value on one strongly connected component.

    rows are the matrix's scaled int-or-None rows; the walk weights stay
    integers and the value is returned in the same scaled units.
    """
    m = len(nodes)
    pos = {v: k for k, v in enumerate(nodes)}
    arcs = [
        (pos[u], pos[v], rows[u][v])
        for u in nodes
        for v in nodes
        if rows[u][v] is not None
    ]
    # dp[k][v] = max weight of a walk of length exactly k from the source.
    dp = [[None] * m for _ in range(m + 1)]
    dp[0][0] = 0
    for k in range(m):
        cur, nxt = dp[k], dp[k + 1]
        for u, v, w in arcs:
            x = cur[u]
            if x is None:
                continue
            s = x + w
            if nxt[v] is None or s > nxt[v]:
                nxt[v] = s
    # max over v of min over k of (dp[m][v] - dp[k][v]) / (m - k), kept as
    # a (numerator, positive denominator) pair and compared crosswise.
    best = None
    last = dp[m]
    for v in range(m):
        dmv = last[v]
        if dmv is None:
            continue
        inner = None
        for k in range(m):
            dkv = dp[k][v]
            if dkv is None:
                continue
            ratio = (dmv - dkv, m - k)
            if inner is None or ratio[0] * inner[1] < inner[0] * ratio[1]:
                inner = ratio
        if inner is not None and (best is None or inner[0] * best[1] > best[0] * inner[1]):
            best = inner
    if best is None:
        raise AssertionError("Karp found no closed walk in a strongly connected component")
    return Fraction(*best)


def spectrum(a: MaxPlusMatrix) -> Spectrum:
    """The maximum cycle mean and, unless it is -inf, the critical graph."""
    lam = max_cycle_mean(a)
    if lam.is_bottom:
        return Spectrum(lam=lam, crit=None)
    return Spectrum(lam=lam, crit=_critical_graph_at(a, lam))


def _cyclic_spectrum(a: MaxPlusMatrix) -> Spectrum:
    """spectrum(a), rejecting acyclic input."""
    sp = spectrum(a)
    if sp.crit is None:
        raise ValueError("critical graph undefined: the digraph is acyclic")
    return sp


def critical_graph(a: MaxPlusMatrix) -> CritGraph:
    """All nodes and arcs on cycles whose mean equals the maximum cycle mean."""
    return _cyclic_spectrum(a).crit


def _critical_graph_at(a: MaxPlusMatrix, lam: MaxPlusScalar) -> CritGraph:
    """The critical graph of a, given its finite maximum cycle mean lam."""
    normalized = scalar_times(negate(lam), a)
    closure = mat_mul(normalized, kleene_star(normalized))
    nraw = normalized.raw()
    craw = closure.raw()
    arcs = set()
    for i in range(a.n):
        for j in range(a.n):
            w = nraw[i][j]
            if w is None:
                continue
            back = craw[j][i]
            if back is not None and w + back == 0:
                arcs.add((i, j))
    nodes = {i for (i, j) in arcs} | {j for (i, j) in arcs}
    crit_digraph = WeightedDigraph(
        a.n, {(i, j): MaxPlusScalar(a.raw()[i][j]) for (i, j) in arcs}
    )
    scc = scc_decompose(crit_digraph, nodes)
    # Complete reducibility: every critical arc stays inside one component.
    for (i, j) in arcs:
        if scc.component_of(i) is not scc.component_of(j):
            raise AssertionError(f"critical arc ({i},{j}) crosses components")
    return CritGraph(
        nodes=frozenset(nodes),
        arcs=frozenset(arcs),
        scc=scc,
        girth=maximal_girth(scc),
        cyclicity=global_cyclicity(scc),
    )


def critical_components(crit: CritGraph) -> list[CritGraph]:
    """The critical graph split into its strongly connected components."""
    out = []
    for comp in crit.scc.components:
        arcs = frozenset(
            (i, j) for (i, j) in crit.arcs if i in comp.nodes and j in comp.nodes
        )
        out.append(
            CritGraph(
                nodes=comp.nodes,
                arcs=arcs,
                scc=SccDecomposition(components=(comp,)),
                girth=comp.girth,
                cyclicity=comp.cyclicity,
            )
        )
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
    normalized = scalar_times(negate(lam), a)
    nraw = normalized.raw()
    n = a.n

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
