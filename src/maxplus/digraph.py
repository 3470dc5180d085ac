"""Digraph analytics for max-plus matrices.

The digraph of a matrix has an arc (i, j) at each finite entry, weighed
by that entry; every reader here takes the matrix itself.  Strongly
connected components with per-component girth and cyclicity, the
aggregate maximal girth / cyclicity, and elementary-cycle enumeration
for small instances.

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
from typing import Iterable, Sequence

from .matrix import MaxPlusMatrix
from .semiring import MaxPlusScalar


def _successors(n: int, arcs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The sorted successor lists of the arcs on nodes 0..n-1."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(arcs):
        succ[i].append(j)
    return succ


def _support(a: MaxPlusMatrix) -> list[list[int]]:
    """The sorted successor lists of the digraph of a: j follows i where a[i, j] is finite."""
    return [[j for j, x in enumerate(row) if x is not None] for row in a.raw()]


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


def _tarjan(succ: Sequence[Sequence[int]], nodes: Iterable[int]) -> list[set[int]]:
    """Iterative Tarjan SCC over the given node subset."""
    nodeset = set(nodes)
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[set[int]] = []
    counter = 0

    for root in sorted(nodeset):
        if root in index:
            continue
        work = [(root, iter([w for w in succ[root] if w in nodeset]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([u for u in succ[w] if u in nodeset])))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _component_girth(succ: Sequence[Sequence[int]], comp: set[int]) -> int | None:
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


def _levels(succ: Sequence[Sequence[int]], comp: set[int]) -> dict[int, int]:
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


def _component_cyclicity(succ: Sequence[Sequence[int]], comp: set[int]) -> int | None:
    """gcd of cycle lengths via BFS level labels: gcd of level(u)+1-level(v)."""
    level = _levels(succ, comp)
    result = 0
    for i in comp:
        for j in succ[i]:
            if j in comp:
                result = gcd(result, level[i] + 1 - level[j])
    return result if result > 0 else None


def _scc_decomposition(succ: Sequence[Sequence[int]], nodes: Iterable[int]) -> SccDecomposition:
    """The SCCs of the subgraph induced on nodes, with girth and cyclicity."""
    comps = []
    for comp in _tarjan(succ, nodes):
        girth = _component_girth(succ, comp)
        cyc = _component_cyclicity(succ, comp) if girth is not None else None
        comps.append(SccInfo(nodes=frozenset(comp), girth=girth, cyclicity=cyc))
    comps.sort(key=lambda c: min(c.nodes))
    return SccDecomposition(components=tuple(comps))


def scc_decompose(a: MaxPlusMatrix, nodes: Iterable[int] | None = None) -> SccDecomposition:
    """The SCCs, with girth and cyclicity, of the digraph of a on the given
    nodes (default: all); a node outside 0..n-1 raises ValueError."""
    nodes = range(a.n) if nodes is None else set(nodes)
    bad = sorted(v for v in nodes if not 0 <= v < a.n)
    if bad:
        raise ValueError(f"nodes {bad} out of range for n={a.n}")
    return _scc_decomposition(_support(a), nodes)


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

