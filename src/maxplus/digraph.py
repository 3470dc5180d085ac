"""Digraph analytics for max-plus matrices.

The digraph of a matrix has an arc (i, j) at each finite entry, weighed
by that entry; every reader here takes the matrix itself.  Strongly
connected components with per-component girth and cyclicity, the
aggregate maximal girth / cyclicity, and elementary-cycle enumeration
for small instances.

Strongly connected components come off a closure, by one grouping:
`scc_decompose` closes the 0/-inf support on its nodes with the
kernel's `_int_closure`, and `spectral._critical_graph_at` reads the
critical components off the closure P+ its spectrum keeps.  Both hand
`_components` the relation one node at a time, as the class of a node
read off its row and column of the closure, and the classes to
`_decomposition`, which adds each one's girth and cyclicity.

The algorithms run on sorted successor lists: `_support` gives those of
a matrix, and `_successors` those of an arc set, which is how `spectral`
and `extremal` pass the critical arcs.  Every cycle listing, the
Hamiltonian one included, goes through one depth-first search,
`_cycles`, for the cycles of one exact length; `extremal` ranks cycles
by weight with a pruned search of its own.

A caution on terminology: ``maximal_girth`` is the maximum over
components of the per-component girth (minimal cycle length), not the
lcm-of-girths quantity some texts call the girth of a reducible graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .matrix import MaxPlusMatrix, _int_closure
from .semiring import MaxPlusScalar


def _successors(n: int, arcs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The sorted successor lists of the arcs on nodes 0..n-1."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(arcs):
        succ[i].append(j)
    return succ


def _support(a: MaxPlusMatrix) -> list[list[int]]:
    """The sorted successor lists of the digraph of a: j follows i where a[i, j] is finite."""
    return [[j for j, x in enumerate(row) if x is not None] for row in a._rows]


@dataclass(frozen=True)
class SccInfo:
    """One strongly connected component with its cycle structure.

    girth is the minimal cycle length within the component and cyclicity
    the gcd of all cycle lengths; both are None for an acyclic (trivial,
    loop-free single-node) component.
    """

    nodes: frozenset[int]
    girth: int | None
    cyclicity: int | None


@dataclass(frozen=True)
class SccDecomposition:
    components: tuple[SccInfo, ...]


def _component_girth(succ: Sequence[Sequence[int]], comp: frozenset[int]) -> int | None:
    """Minimal directed cycle length inside the component, by BFS per node.

    The BFS from s stops at the first level whose nodes have an arc back
    to s, and at the shortest cycle found so far.
    """
    best = None
    for s in comp:
        seen, frontier, depth = {s}, [s], 1
        while frontier and (best is None or depth < best):
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if v == s:
                        best = depth
                    elif v in comp and v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier, depth = nxt, depth + 1
    return best


def _levels(succ: Sequence[Sequence[int]], comp: frozenset[int]) -> dict[int, int]:
    """BFS level of each node of comp from its least node, along arcs within comp."""
    root = min(comp)
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if v in comp and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def _component_cyclicity(succ: Sequence[Sequence[int]], comp: frozenset[int]) -> int | None:
    """gcd of cycle lengths via BFS level labels: gcd of level(u)+1-level(v)."""
    level = _levels(succ, comp)
    result = 0
    for i in comp:
        for j in succ[i]:
            if j in comp:
                result = gcd(result, level[i] + 1 - level[j])
    return result if result > 0 else None


def _components(nodes: Iterable[int], joined: Callable[[int], Iterable[int]]) -> list[frozenset[int]]:
    """The classes of an equivalence on nodes, ordered by least node;
    joined(i) is the class of i, asked once per class, at its least node."""
    seen: set[int] = set()
    comps = []
    for i in sorted(nodes):
        if i not in seen:
            comps.append(frozenset(joined(i)))
            seen |= comps[-1]
    return comps


def _decomposition(succ: Sequence[Sequence[int]], comps: Iterable[frozenset[int]]) -> SccDecomposition:
    """One SccInfo per component of comps, with its girth and cyclicity."""
    return SccDecomposition(tuple(SccInfo(c, _component_girth(succ, c), _component_cyclicity(succ, c)) for c in comps))


def scc_decompose(a: MaxPlusMatrix, nodes: Iterable[int] | None = None) -> SccDecomposition:
    """The SCCs, with girth and cyclicity, of the digraph of a on the given
    nodes (default: all); a node outside 0..n-1 raises ValueError.

    The 0/-inf support on those nodes is closed by the kernel's
    _int_closure, and i and j share a component when each reaches the other.
    """
    nodes = range(a.n) if nodes is None else set(nodes)
    bad = sorted(v for v in nodes if not 0 <= v < a.n)
    if bad:
        raise ValueError(f"nodes {bad} out of range for n={a.n}")
    reach = [
        [0 if x is not None and i in nodes and j in nodes else None for j, x in enumerate(row)]
        for i, row in enumerate(a._rows)
    ]
    _int_closure(reach)
    cols = list(zip(*reach))

    def joined(i: int) -> set[int]:  # i and the j with each reaching the other
        return {i} | {j for j, (x, y) in enumerate(zip(reach[i], cols[i])) if x is not None and y is not None}

    return _decomposition(_support(a), _components(nodes, joined))


def maximal_girth(d: SccDecomposition) -> int:
    """Max over components of the component girth; needs at least one cycle."""
    girths = [c.girth for c in d.components if c.girth is not None]
    if not girths:
        raise ValueError("maximal_girth undefined: the digraph is acyclic")
    return max(girths)


def global_cyclicity(d: SccDecomposition) -> int:
    """lcm of component cyclicities; rejects decompositions with acyclic parts."""
    cycs = []
    for c in d.components:
        if c.cyclicity is None:
            raise ValueError(f"acyclic component {sorted(c.nodes)} has no cyclicity")
        cycs.append(c.cyclicity)
    return lcm(*cycs)


@dataclass(frozen=True)
class Cycle:
    """An elementary cycle, canonically rotated to start at its least node."""

    nodes: tuple[int, ...]
    length: int
    weight: MaxPlusScalar


def enumerate_cycles(a: MaxPlusMatrix, max_n: int = 8, max_length: int | None = None) -> list[Cycle]:
    """All elementary cycles of the digraph of a with their exact weights,
    the sums of a's entries along them, for small instances.

    The cycles of each length k = 1, 2, ... up to max_length (default n)
    come from `_cycles`, the one cycle DFS of the package, and only those
    it returns are weighed.  Refuses instances with more than max_n nodes.
    """
    if a.n > max_n:
        raise ValueError(f"instance too large for cycle enumeration: n={a.n} > {max_n}")
    raw, succ = a.raw(), _support(a)
    cycles = []
    for k in range(1, (a.n if max_length is None else min(max_length, a.n)) + 1):
        for nodes in _cycles(succ, k):
            weight = sum(raw[u][v] for u, v in zip(nodes, nodes[1:] + nodes[:1]))
            cycles.append(Cycle(nodes, k, MaxPlusScalar(weight)))
    cycles.sort(key=lambda c: (c.length, c.nodes))
    return cycles


def _cycles(succ: Sequence[Sequence[int]], length: int) -> list[tuple[int, ...]]:
    """Every elementary cycle of exactly `length` nodes, as a node tuple.

    Each cycle is rooted at its least node, so it is reported exactly once
    up to rotation, and only roots 0..n-length can be least; the cycles
    come root by root, each root's in the order of the sorted successors.
    No weight is computed.
    """
    if length < 1:
        return []
    cycles: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path = [False] * len(succ)

    def dfs(root: int, u: int) -> None:
        if len(path) == length:
            if root in succ[u]:
                cycles.append(tuple(path))
            return
        for v in succ[u]:
            if v > root and not on_path[v]:
                path.append(v)
                on_path[v] = True
                dfs(root, v)
                on_path[v] = False
                path.pop()

    for root in range(len(succ) - length + 1):
        path.append(root)
        dfs(root, root)
        path.pop()
    return cycles

