"""Digraph analytics for max-plus matrices.

Associated digraphs, strongly connected components with per-component
girth and cyclicity, the aggregate maximal girth / cyclicity, and
elementary-cycle enumeration for small instances.

Below the public `WeightedDigraph`, the algorithms run on sorted
successor lists (`_successors`), which `spectral` and `extremal` build
from the critical arcs with no weighted digraph in between.  Every
cycle listing, the Hamiltonian one included, goes through one
depth-first search, `_cycles`, for the cycles of one exact length;
`extremal` ranks cycles by weight with a pruned search of its own.

A caution on terminology: ``maximal_girth`` is the maximum over
components of the per-component girth (minimal cycle length), not the
lcm-of-girths quantity some texts call the girth of a reducible graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Sequence

from .matrix import MaxPlusMatrix
from .semiring import BOTTOM, UNIT, MaxPlusScalar, otimes


class WeightedDigraph:
    """A digraph on nodes 0..n-1 with at most one exact-weight arc per pair."""

    __slots__ = ("n", "arcs", "_succ")

    def __init__(self, n: int, arcs: dict[tuple[int, int], MaxPlusScalar]):
        self.n = n
        for (i, j), w in arcs.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"arc ({i},{j}) out of range for n={n}")
            if w.is_bottom:
                raise ValueError(f"arc ({i},{j}) must carry a finite weight")
        self.arcs = dict(arcs)
        self._succ = _successors(n, arcs)

    def weight(self, i: int, j: int) -> MaxPlusScalar:
        return self.arcs.get((i, j), BOTTOM)


def _successors(n: int, arcs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The sorted successor lists of the arcs on nodes 0..n-1."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(arcs):
        succ[i].append(j)
    return succ


def associated_digraph(a: MaxPlusMatrix) -> WeightedDigraph:
    """Arcs at exactly the finite entries of the matrix."""
    arcs = {}
    for i, row in enumerate(a.raw()):
        for j, w in enumerate(row):
            if w is not None:
                arcs[(i, j)] = MaxPlusScalar(w)
    return WeightedDigraph(a.n, arcs)


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

    def component_of(self, v: int) -> SccInfo:
        for comp in self.components:
            if v in comp.nodes:
                return comp
        raise KeyError(v)


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


def scc_decompose(g: WeightedDigraph, nodes: Iterable[int] | None = None) -> SccDecomposition:
    """Partition the node set (default: all nodes) into SCCs with girth/cyclicity."""
    return _scc_decomposition(g._succ, range(g.n) if nodes is None else nodes)


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


def enumerate_cycles(g: WeightedDigraph, max_n: int = 8, max_length: int | None = None) -> list[Cycle]:
    """All elementary cycles with their exact weights, for small instances.

    The cycles of each length k = 1, 2, ... up to max_length (default n)
    come from `_cycles`, the one cycle DFS of the package, and only those
    it returns are weighed.  Refuses instances with more than max_n nodes.
    """
    if g.n > max_n:
        raise ValueError(f"instance too large for cycle enumeration: n={g.n} > {max_n}")
    cycles = []
    for k in range(1, (g.n if max_length is None else min(max_length, g.n)) + 1):
        for nodes in _cycles(g._succ, k):
            weight = UNIT
            for u, v in zip(nodes, nodes[1:] + nodes[:1]):
                weight = otimes(weight, g.weight(u, v))
            cycles.append(Cycle(nodes, k, weight))
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


def to_dot(g: WeightedDigraph, critical_arcs: Iterable[tuple[int, int]] | None = None) -> str:
    """DOT rendering with critical arcs drawn bold red."""
    crit = set(critical_arcs or ())
    lines = ["digraph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for (i, j) in sorted(g.arcs):
        attrs = [f'label="{g.arcs[(i, j)]}"']
        if (i, j) in crit:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        lines.append(f"  {i} -> {j} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
