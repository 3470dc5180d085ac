"""Extremal families attaining the Wielandt and Dulmage-Mendelsohn bounds.

A matrix whose weak expansion threshold hits DM(g, n) is rigid: after a
unique renumbering its digraph carries a maximum-weight Hamiltonian
cycle 0 -> 1 -> ... -> n-1 -> 0, the unique critical cycle of length g
sits on positions 0..g-1 (closed by the chord (g-1, 0)), and the three
layers of the support

    a1: the Hamiltonian arcs plus the chord (g-1, 0),
    b1: the residue chords (i, j) with i, j >= g and j = i+1 (mod g),
    a2: everything else,

satisfy exact strict inequalities.  This module implements that
decomposition, the condition verifiers for both bounds (including the
critical row/column variants), randomized generators of attaining
instances, and the twice-optimal walk oracle used to inspect them.

Node indices are 0-based throughout; a numbering is a permutation tuple
``sigma`` placing original node ``sigma[p]`` at position ``p``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .bounds import dm_bound, wielandt_bound
from .csr import _transient_scan, build_csr, csr_at, weak_threshold_T1
from .digraph import WeightedDigraph, associated_digraph, enumerate_cycles
from .matrix import (
    MaxPlusMatrix,
    from_entries,
    mat_power,
    scalar_times,
    strictly_dominated_by,
    zeros,
)
from .semiring import MaxPlusScalar, negate, scalar_power
from .spectral import CritGraph, _cyclic_spectrum, critical_graph

SEARCH_LIMIT = 10  # exhaustive Hamiltonian-cycle search is desk-scale only


# ---------------------------------------------------------------------------
# support patterns and decomposition


def a1_pattern(n: int, g: int) -> set[tuple[int, int]]:
    """Hamiltonian arcs (i, i+1) and (n-1, 0), plus the chord (g-1, 0)."""
    arcs = {(i, i + 1) for i in range(n - 1)}
    arcs.add((n - 1, 0))
    arcs.add((g - 1, 0))
    return arcs


def b1_pattern(n: int, g: int) -> set[tuple[int, int]]:
    """Residue chords: (i, j) with i, j >= g and j = i+1 (mod g)."""
    return {
        (i, j)
        for i in range(g, n)
        for j in range(g, n)
        if (j - i - 1) % g == 0
    }


@dataclass(frozen=True)
class Decomposition:
    """The a1 / b1 / a2 layers of a matrix under a numbering.

    All three matrices live in permuted coordinates; their entrywise max
    reassembles the permuted matrix.
    """

    a1: MaxPlusMatrix
    b1: MaxPlusMatrix
    a2: MaxPlusMatrix
    g: int
    numbering: tuple[int, ...]


def _check_numbering(n: int, numbering: tuple[int, ...]) -> None:
    if sorted(numbering) != list(range(n)):
        raise ValueError(f"invalid numbering {numbering!r} for n={n}")


def apply_numbering(a: MaxPlusMatrix, numbering: tuple[int, ...]) -> MaxPlusMatrix:
    """Relabel so that position p holds original node numbering[p]."""
    _check_numbering(a.n, numbering)
    raw = a.raw()
    return MaxPlusMatrix._from_raw(
        [[raw[numbering[p]][numbering[q]] for q in range(a.n)] for p in range(a.n)]
    )


def decompose(a: MaxPlusMatrix, g: int, numbering: tuple[int, ...]) -> Decomposition:
    """Carve the permuted matrix into the a1 / b1 / a2 support layers."""
    n = a.n
    if not 1 <= g <= n:
        raise ValueError(f"need 1 <= g <= n, got g={g}")
    p = apply_numbering(a, numbering)
    praw = p.raw()
    pat1 = a1_pattern(n, g)
    pat2 = b1_pattern(n, g)
    a1 = [[praw[i][j] if (i, j) in pat1 else None for j in range(n)] for i in range(n)]
    b1 = [[praw[i][j] if (i, j) in pat2 else None for j in range(n)] for i in range(n)]
    a2 = [
        [
            praw[i][j] if (i, j) not in pat1 and (i, j) not in pat2 else None
            for j in range(n)
        ]
        for i in range(n)
    ]
    return Decomposition(
        a1=MaxPlusMatrix._from_raw(a1),
        b1=MaxPlusMatrix._from_raw(b1),
        a2=MaxPlusMatrix._from_raw(a2),
        g=g,
        numbering=tuple(numbering),
    )


# ---------------------------------------------------------------------------
# cycle searches


def hamiltonian_cycles(dg: WeightedDigraph) -> list[tuple[int, ...]]:
    """All Hamiltonian cycles as node tuples starting at node 0."""
    n = dg.n
    if n == 1:
        return [(0,)] if (0, 0) in dg.arcs else []
    found: list[tuple[int, ...]] = []
    path = [0]
    used = [False] * n
    used[0] = True

    def extend(u: int) -> None:
        if len(path) == n:
            if (u, 0) in dg.arcs:
                found.append(tuple(path))
            return
        for v in dg.successors(u):
            if not used[v]:
                used[v] = True
                path.append(v)
                extend(v)
                path.pop()
                used[v] = False

    extend(0)
    return found


def _cycle_weight(a: MaxPlusMatrix, cycle: tuple[int, ...]) -> Fraction | None:
    raw = a.raw()
    total = Fraction(0)
    k = len(cycle)
    for s in range(k):
        w = raw[cycle[s]][cycle[(s + 1) % k]]
        if w is None:
            return None
        total += w
    return total


def _unique_max_weight(a: MaxPlusMatrix, cycles: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The single heaviest cycle of the list, or None on ties / empty input."""
    best_w = None
    winners: list[tuple[int, ...]] = []
    for cyc in cycles:
        w = _cycle_weight(a, cyc)
        if w is None:
            raise AssertionError(f"cycle {cyc} has a missing arc")
        if best_w is None or w > best_w:
            best_w, winners = w, [cyc]
        elif w == best_w:
            winners.append(cyc)
    return winners[0] if len(winners) == 1 else None


def _check_search_limit(n: int) -> None:
    if n > SEARCH_LIMIT:
        raise ValueError(
            f"n={n} exceeds the exhaustive search limit {SEARCH_LIMIT}; "
            "supply an explicit numbering"
        )


def _rotations(cycle: tuple[int, ...]) -> set[tuple[int, ...]]:
    k = len(cycle)
    return {cycle[r:] + cycle[:r] for r in range(k)}


def _crit_digraph(a: MaxPlusMatrix, crit: CritGraph) -> WeightedDigraph:
    """The digraph of the critical arcs, weighted as in a."""
    raw = a.raw()
    return WeightedDigraph(a.n, {(i, j): MaxPlusScalar(raw[i][j]) for (i, j) in crit.arcs})


def _critical_cycles_of_length(a: MaxPlusMatrix, crit: CritGraph, length: int) -> list[tuple[int, ...]]:
    sub = _crit_digraph(a, crit)
    cycles = enumerate_cycles(sub, max_n=sub.n, max_length=length)
    return [c.nodes for c in cycles if c.length == length]


def _align_numbering(
    ham: tuple[int, ...], cycle: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Rotate the Hamiltonian order so the cycle occupies the first positions.

    Succeeds only when the cycle's nodes appear consecutively along the
    Hamiltonian cycle in the same arc order.
    """
    n = len(ham)
    g = len(cycle)
    targets = _rotations(cycle)
    for k in range(n):
        window = tuple(ham[(k + p) % n] for p in range(g))
        if window in targets:
            return tuple(ham[(k + p) % n] for p in range(n))
    return None


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class ConditionCheck:
    passed: bool
    vacuous: bool = False
    detail: str = ""


@dataclass(frozen=True)
class DmVerdict:
    """Outcome of the DM attainment test with per-condition diagnostics."""

    holds: bool
    numbering: tuple[int, ...] | None
    conditions: dict[str, ConditionCheck] = field(default_factory=dict)


@dataclass(frozen=True)
class WielandtVerdict:
    holds: bool
    numbering: tuple[int, ...] | None
    case: str | None  # "n-1" or "n" when determined
    conditions: dict[str, ConditionCheck] = field(default_factory=dict)


def _fail(conditions: dict, key: str, detail: str = "") -> None:
    conditions[key] = ConditionCheck(passed=False, detail=detail)


def _crit_positions(crit: CritGraph, numbering: tuple[int, ...]) -> set[tuple[int, int]]:
    inv = {node: pos for pos, node in enumerate(numbering)}
    return {(inv[i], inv[j]) for (i, j) in crit.arcs}


def _cycle_arcs(k: int) -> list[tuple[int, int]]:
    """The arcs of the cycle 0 -> 1 -> ... -> k-1 -> 0."""
    return [(i, i + 1) for i in range(k - 1)] + [(k - 1, 0)]


def _support_check(praw, arcs) -> ConditionCheck:
    missing = [arc for arc in arcs if praw[arc[0]][arc[1]] is None]
    return ConditionCheck(not missing, detail=f"missing arcs {missing}" if missing else "")


def _critical_check(arcs, crit_pos: set[tuple[int, int]]) -> ConditionCheck:
    noncrit = [arc for arc in arcs if arc not in crit_pos]
    return ConditionCheck(not noncrit, detail=f"non-critical arcs {noncrit}" if noncrit else "")


def _scalar_strictly_less(x: MaxPlusScalar, y: MaxPlusScalar) -> bool:
    """Strict domination of single entries: -inf < finite, never -inf < -inf."""
    if x.is_bottom:
        return not y.is_bottom
    return not y.is_bottom and x.value < y.value


def verify_dm(
    a: MaxPlusMatrix,
    numbering: tuple[int, ...] | None = None,
) -> DmVerdict:
    """Check the exact conditions equivalent to T1 attaining DM(g, n), g >= 2.

    With ``numbering=None`` the canonical numbering is searched for: the
    unique maximum-weight Hamiltonian cycle, rotated so the unique
    critical g-cycle occupies the leading positions.  Girth-1 critical
    graphs are rejected: no attainment characterization is known there.
    """
    n = a.n
    sp = _cyclic_spectrum(a)
    crit = sp.crit
    g = crit.girth
    if g == 1:
        raise ValueError(
            "verify_dm does not support girth-1 critical graphs "
            "(no attainment characterization is known for g = 1)"
        )
    conditions: dict[str, ConditionCheck] = {}

    strongly = len(crit.scc.components) == 1
    conditions["crit_strongly_connected"] = ConditionCheck(strongly)
    short_cycles = _critical_cycles_of_length(a, crit, g)
    conditions["unique_critical_short_cycle"] = ConditionCheck(
        len(short_cycles) == 1, detail=f"found {len(short_cycles)} critical {g}-cycles"
    )

    if numbering is None:
        _check_search_limit(n)
        if not strongly or len(short_cycles) != 1:
            return DmVerdict(holds=False, numbering=None, conditions=conditions)
        numbering = _search_dm_numbering(a, short_cycles[0], conditions)
        if numbering is None:
            return DmVerdict(holds=False, numbering=None, conditions=conditions)
    else:
        numbering = tuple(numbering)
        _check_numbering(n, numbering)

    _dm_conditions(a, sp.lam, crit, g, numbering, conditions)
    holds = all(c.passed for c in conditions.values())
    return DmVerdict(holds=holds, numbering=numbering, conditions=conditions)


def _unique_heaviest_hamiltonian(
    a: MaxPlusMatrix, dg: WeightedDigraph, conditions: dict
) -> tuple[int, ...] | None:
    """The unique maximum-weight Hamiltonian cycle, recording the verdict."""
    hams = hamiltonian_cycles(dg)
    if not hams:
        _fail(conditions, "unique_max_weight_hamiltonian", "no Hamiltonian cycle")
        return None
    ham = _unique_max_weight(a, hams)
    if ham is None:
        _fail(
            conditions,
            "unique_max_weight_hamiltonian",
            "maximum-weight Hamiltonian cycle is not unique",
        )
        return None
    conditions["unique_max_weight_hamiltonian"] = ConditionCheck(True)
    return ham


def _search_dm_numbering(
    a: MaxPlusMatrix, short_cycle: tuple[int, ...], conditions: dict
) -> tuple[int, ...] | None:
    ham = _unique_heaviest_hamiltonian(a, associated_digraph(a), conditions)
    if ham is None:
        return None
    numbering = _align_numbering(ham, short_cycle)
    if numbering is None:
        _fail(
            conditions,
            "short_cycle_consecutive",
            "critical cycle does not sit consecutively on the Hamiltonian cycle",
        )
    return numbering


def _dm_conditions(
    a: MaxPlusMatrix,
    lam: MaxPlusScalar,
    crit: CritGraph,
    g: int,
    numbering: tuple[int, ...],
    conditions: dict[str, ConditionCheck],
) -> None:
    n = a.n
    dec = decompose(a, g, numbering)
    p = apply_numbering(a, numbering)
    praw = p.raw()
    crit_pos = _crit_positions(crit, numbering)

    conditions["hamiltonian_support"] = _support_check(praw, _cycle_arcs(n))
    conditions["short_cycle_critical"] = _critical_check(_cycle_arcs(g), crit_pos)

    conditions["coprime"] = ConditionCheck(
        gcd(g, n) == 1, detail=f"gcd({g},{n})={gcd(g, n)}"
    )

    csr1 = build_csr(dec.a1)
    conditions["remainder_below_csr"] = ConditionCheck(
        strictly_dominated_by(dec.a2, csr_at(csr1, 1))
    )

    # Residue chords must lose strictly to the parallel run of consecutive
    # arcs: (j-i-1)*lambda + b1_ij < (a1^(j-i))_ij for j > i+1.
    b1raw = dec.b1.raw()
    witnesses = []
    qualifying = 0
    a1_powers: dict[int, MaxPlusMatrix] = {}
    for i in range(g, n):
        for j in range(g, n):
            if j <= i + 1 or (j - i - 1) % g != 0:
                continue
            qualifying += 1
            bij = b1raw[i][j]
            if bij is None:
                continue
            k = j - i
            if k not in a1_powers:
                a1_powers[k] = mat_power(dec.a1, k)
            rhs = a1_powers[k].raw()[i][j]
            lhs = scalar_power(lam, k - 1).value + bij
            if rhs is None or lhs >= rhs:
                witnesses.append((i, j))
    if qualifying == 0:
        conditions["residue_chords_below_paths"] = ConditionCheck(
            True, vacuous=True, detail="no qualifying chord positions"
        )
    else:
        conditions["residue_chords_below_paths"] = ConditionCheck(
            not witnesses, detail=f"violated at {witnesses}" if witnesses else ""
        )

    dmv = dm_bound(g, n)
    if n < 2 * g:
        # The chord layer is a bare path here, hence nilpotent.
        nilpotent = mat_power(dec.b1, n - g) == zeros(n) if n - g >= 1 else True
        conditions["chord_power_below_csr"] = ConditionCheck(
            nilpotent, vacuous=True, detail="chord layer is acyclic" if nilpotent else "chord layer unexpectedly has a cycle"
        )
    else:
        lhs = mat_power(dec.b1, dmv - 1)[g, n - 1]
        rhs = csr_at(csr1, dmv - 1)[g, n - 1]
        conditions["chord_power_below_csr"] = ConditionCheck(
            _scalar_strictly_less(lhs, rhs), detail=f"{lhs} vs {rhs}"
        )


def verify_wielandt(
    a: MaxPlusMatrix,
    numbering: tuple[int, ...] | None = None,
) -> WielandtVerdict:
    """Check the conditions equivalent to T1 attaining Wi(n) = (n-1)^2 + 1.

    Attainment forces the critical girth to be n-1 or n.  In both cases
    the support layers are taken with the chord at (n-2, 0), and the
    remainder must be strictly dominated by the CSR term of the skeleton.
    In search mode the numbering comes from the unique maximum-weight
    Hamiltonian cycle rotated so the unique maximum-weight (n-1)-cycle
    occupies the leading positions.
    """
    n = a.n
    if n < 2:
        raise ValueError("Wielandt attainment needs n >= 2")
    crit = critical_graph(a)
    conditions: dict[str, ConditionCheck] = {}

    if numbering is None:
        _check_search_limit(n)
        numbering = _search_wielandt_numbering(a, conditions)
        if numbering is None:
            return WielandtVerdict(holds=False, numbering=None, case=None, conditions=conditions)
    else:
        numbering = tuple(numbering)
        _check_numbering(n, numbering)

    case = _wielandt_conditions(a, crit, numbering, conditions)
    holds = all(c.passed for c in conditions.values())
    return WielandtVerdict(holds=holds, numbering=numbering, case=case, conditions=conditions)


def _search_wielandt_numbering(a: MaxPlusMatrix, conditions: dict) -> tuple[int, ...] | None:
    dg = associated_digraph(a)
    ham = _unique_heaviest_hamiltonian(a, dg, conditions)
    if ham is None:
        return None

    n = a.n
    subs = [c.nodes for c in enumerate_cycles(dg, max_n=n, max_length=n - 1) if c.length == n - 1]
    if not subs:
        _fail(conditions, "unique_max_weight_subcycle", f"no cycle of length {n - 1}")
        return None
    sub = _unique_max_weight(a, subs)
    if sub is None:
        _fail(
            conditions,
            "unique_max_weight_subcycle",
            f"maximum-weight {n - 1}-cycle is not unique",
        )
        return None
    conditions["unique_max_weight_subcycle"] = ConditionCheck(True)
    numbering = _align_numbering(ham, sub)
    if numbering is None:
        _fail(
            conditions,
            "subcycle_consecutive",
            "the heaviest (n-1)-cycle does not follow the Hamiltonian order",
        )
    return numbering


def _wielandt_conditions(
    a: MaxPlusMatrix,
    crit: CritGraph,
    numbering: tuple[int, ...],
    conditions: dict[str, ConditionCheck],
) -> str | None:
    n = a.n
    g_crit = crit.girth
    p = apply_numbering(a, numbering)
    praw = p.raw()
    crit_pos = _crit_positions(crit, numbering)

    conditions["skeleton_support"] = _support_check(praw, sorted(a1_pattern(n, n - 1)))

    case: str | None = None
    if g_crit == n:
        conditions["named_cycle_critical"] = _critical_check(_cycle_arcs(n), crit_pos)
        case = "n"
    elif g_crit == n - 1:
        conditions["named_cycle_critical"] = _critical_check(_cycle_arcs(n - 1), crit_pos)
        conditions["crit_strongly_connected"] = ConditionCheck(
            len(crit.scc.components) == 1
        )
        subs = _critical_cycles_of_length(a, crit, n - 1)
        conditions["unique_critical_subcycle"] = ConditionCheck(
            len(subs) == 1, detail=f"found {len(subs)} critical {n - 1}-cycles"
        )
        case = "n-1"
    else:
        conditions["girth_in_range"] = ConditionCheck(
            False, detail=f"critical girth {g_crit} is below n-1 = {n - 1}"
        )
        return None

    a1, a2 = _wielandt_layers(p)
    conditions["remainder_below_csr"] = ConditionCheck(
        strictly_dominated_by(a2, csr_at(build_csr(a1), 1))
    )
    return case


def _wielandt_layers(p: MaxPlusMatrix) -> tuple[MaxPlusMatrix, MaxPlusMatrix]:
    """Skeleton (Hamiltonian + chord at (n-2, 0)) and remainder of a permuted matrix.

    The remainder is the complement of the skeleton pattern.  For n = 2 the
    residue-chord layer of the general decomposition would swallow the
    (1, 1) loop; it belongs to the remainder here, consistently with the
    2x2 characterization (attainment iff the two loops differ).
    """
    n = p.n
    praw = p.raw()
    pattern = a1_pattern(n, n - 1)
    a1 = [[praw[i][j] if (i, j) in pattern else None for j in range(n)] for i in range(n)]
    a2 = [[praw[i][j] if (i, j) not in pattern else None for j in range(n)] for i in range(n)]
    return MaxPlusMatrix._from_raw(a1), MaxPlusMatrix._from_raw(a2)


# ---------------------------------------------------------------------------
# critical row/column variants


def _boolean_index(crit: CritGraph) -> int:
    """Transient of the critical graph as a 0/-inf matrix (max over components).

    Each component is strongly connected and every cycle in it weighs 0,
    so its 0/-inf matrix has cycle mean 0, is its own A - lambda, and has
    the whole component as critical graph, of cyclicity comp.cyclicity:
    the transient scan runs on those rows directly.
    """
    worst = 0
    for comp in crit.scc.components:
        nodes = sorted(comp.nodes)
        rows = [[0 if (i, j) in crit.arcs else None for j in nodes] for i in nodes]
        worst = max(worst, _transient_scan(rows, comp.cyclicity))
    return worst


def verify_crit_rc_dm(a: MaxPlusMatrix) -> bool:
    """Does the critical graph's index equal DM(g, n)?

    Equivalent to the transient of the critical rows and columns hitting
    the DM bound.
    """
    crit = critical_graph(a)
    return _boolean_index(crit) == dm_bound(crit.girth, a.n)


def verify_crit_rc_wielandt(
    a: MaxPlusMatrix,
    numbering: tuple[int, ...] | None = None,
) -> bool:
    """Does some numbering split a into a Wielandt-index skeleton plus remainder?

    The shape sought: the skeleton layer a1 (Hamiltonian arcs plus the
    chord) has digraph index Wi(n), its Hamiltonian cycle is critical in
    a1, and the remainder a2 is strictly dominated by CSR of a1.  This is
    exactly when the critical rows and columns have transient Wi(n); the
    critical graph itself may be a bare Hamiltonian cycle.

    Only the Hamiltonian cycles of crit(a), the critical graph of a, are
    tried, because a2 < CSR(a1) forces crit(a) = crit(a1).  Proof: a1
    and a2 have disjoint supports and a = a1 (+) a2.  Let lam = lam(a1)
    and weigh walks in a1 - lam, where every closed walk weighs <= 0 and
    exactly the critical cycles of a1 weigh 0.  A finite entry (i, j) of
    CSR(a1) - lam = C (S - lam) R is the weight of a walk of a1 from i
    to j, so each arc (i, j) of a2 is strictly lighter than some walk
    P_ij of a1.  Replacing every a2 arc of a cycle Z of a by its P_ij
    gives a closed walk of a1, hence w(Z) <= 0, strictly so when Z uses
    an arc of a2.  So lam(a) <= lam(a1) <= lam(a), and the cycles of
    weight 0, the critical ones, are the same in a and a1.

    Hence the Hamiltonian cycle of a numbering that succeeds is critical
    in a, and crit(a) = crit(a1) lies within the n + 1 skeleton arcs: it
    covers all n nodes, has at most n + 1 arcs and at most two
    Hamiltonian cycles, each tried in its n rotations.  Conversely such a
    cycle has mean lam(a) >= lam(a1), so once it lies in a1 it is
    critical there, and only the support and CSR checks remain.  An
    explicit numbering is checked only if it is one of these candidates,
    which by the same argument loses no numbering that succeeds.
    """
    n = a.n
    if n < 2:
        raise ValueError("Wielandt attainment needs n >= 2")
    crit = critical_graph(a)  # precondition: a finite cycle mean
    if numbering is not None:
        numbering = tuple(numbering)
        _check_numbering(n, numbering)
    if len(crit.nodes) < n or len(crit.arcs) > n + 1:
        return False
    candidates = [
        ham[k:] + ham[:k] for ham in hamiltonian_cycles(_crit_digraph(a, crit)) for k in range(n)
    ]
    if numbering is not None:
        candidates = [numbering] if numbering in candidates else []
    for cand in candidates:
        p = apply_numbering(a, cand)
        praw = p.raw()
        if any(praw[i][j] is None for (i, j) in a1_pattern(n, n - 1)):
            continue
        a1, a2 = _wielandt_layers(p)
        if strictly_dominated_by(a2, csr_at(build_csr(a1), 1)):
            return True
    return False


# ---------------------------------------------------------------------------
# skeletons and generators


def wielandt_skeleton(n: int) -> MaxPlusMatrix:
    """The 0/-inf matrix on the Hamiltonian cycle plus the (n-2, 0) chord."""
    if n < 2:
        raise ValueError("need n >= 2")
    return from_entries(n, {arc: 0 for arc in a1_pattern(n, n - 1)})


def dm_skeleton(n: int, g: int) -> MaxPlusMatrix:
    """The 0/-inf matrix on the Hamiltonian cycle plus the (g-1, 0) chord."""
    if not 1 <= g <= n:
        raise ValueError(f"need 1 <= g <= n, got g={g}")
    return from_entries(n, {arc: 0 for arc in a1_pattern(n, g)})


def _rand_fraction(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.choice((1, 2, 3, 4))
    return Fraction(rng.randint(lo * den, hi * den), den)


def _rand_margin(rng: random.Random) -> Fraction:
    den = rng.choice((1, 2, 3, 4))
    return Fraction(rng.randint(1, 6 * den), den)


def _hamiltonian_entries(
    rng: random.Random, n: int
) -> tuple[list[Fraction], dict[tuple[int, int], Fraction]]:
    """Random weights on the arcs (i, i+1), and (n-1, 0) closing them at mean 0."""
    hamw = [_rand_fraction(rng, -3, 3) for _ in range(n - 1)]
    entries = {(i, i + 1): hamw[i] for i in range(n - 1)}
    entries[(n - 1, 0)] = -sum(hamw)
    return hamw, entries


def _sample_remainder(
    rng: random.Random, bound: MaxPlusMatrix, taken: set[tuple[int, int]]
) -> dict[tuple[int, int], Fraction]:
    """Random entries off `taken`, each strictly below its entry of bound."""
    n = bound.n
    ceiling_raw = bound.raw()
    entries: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        for j in range(n):
            if (i, j) in taken or rng.random() >= 0.5:
                continue
            ceiling = ceiling_raw[i][j]
            if ceiling is not None:
                entries[(i, j)] = ceiling - _rand_margin(rng)
    return entries


class GenerationError(RuntimeError):
    """Raised when the rejection-sampling budget runs out."""


def generate_dm(n: int, g: int, seed, budget: int = 200) -> MaxPlusMatrix:
    """A random matrix attaining T1 = DM(g, n) under the identity numbering.

    Both skeleton cycles (the g-cycle and the Hamiltonian cycle) are made
    critical with mean 0, residue chords are sampled strictly inside
    their constraints, and the remainder strictly below the skeleton CSR
    term.  Every candidate is post-verified (condition verdict plus an
    independent T1 scan) before being returned.
    """
    if not 2 <= g < n:
        raise ValueError(f"need 2 <= g < n, got g={g}, n={n}")
    if gcd(g, n) != 1:
        raise ValueError(f"g={g} and n={n} are not coprime")
    rng = random.Random(seed)
    dmv = dm_bound(g, n)
    identity_numbering = tuple(range(n))

    for _ in range(budget):
        hamw, entries = _hamiltonian_entries(rng, n)
        entries[(g - 1, 0)] = -sum(hamw[: g - 1])
        a1 = from_entries(n, entries)

        wmax = max(max(abs(w) for w in entries.values()), Fraction(1))
        big_m = 1 + 2 * n * n * wmax

        b1_entries: dict[tuple[int, int], Fraction] = {}
        for i in range(g, n):
            for j in range(g, n):
                if (j - i - 1) % g != 0 or j == i + 1 or i == j:
                    continue
                if j > i + 1 and rng.random() < 0.7:
                    path = sum(hamw[i:j])
                    b1_entries[(i, j)] = path - _rand_margin(rng)
                elif j < i and rng.random() < 0.5:
                    path = sum(hamw[j:i])
                    b1_entries[(i, j)] = -path - big_m - _rand_margin(rng)

        csr1 = build_csr(a1)
        if n >= 2 * g:
            b1 = from_entries(n, b1_entries)
            lhs = mat_power(b1, dmv - 1)[g, n - 1]
            rhs = csr_at(csr1, dmv - 1)[g, n - 1]
            if not _scalar_strictly_less(lhs, rhs):
                continue

        taken = a1_pattern(n, g) | b1_pattern(n, g)
        a2_entries = _sample_remainder(rng, csr_at(csr1, 1), taken)
        candidate = from_entries(n, {**entries, **b1_entries, **a2_entries})
        if (
            verify_dm(candidate, numbering=identity_numbering).holds
            and weak_threshold_T1(candidate).t1 == dmv
        ):
            return candidate
    raise GenerationError(f"budget of {budget} attempts exhausted for (n={n}, g={g}, seed={seed!r})")


def generate_wielandt(n: int, seed, case: str = "n-1", budget: int = 200) -> MaxPlusMatrix:
    """A random matrix attaining T1 = Wi(n) under the identity numbering.

    case "n-1" makes the (n-1)-cycle critical (the Hamiltonian cycle is
    then also left at the critical mean, so the whole skeleton digraph is
    critical and the critical rows and columns attain the bound as well);
    case "n" makes only the Hamiltonian cycle critical.  Post-verified
    like generate_dm.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if case not in ("n-1", "n"):
        raise ValueError(f"case must be 'n-1' or 'n', got {case!r}")
    rng = random.Random(seed)
    wi = wielandt_bound(n)
    identity_numbering = tuple(range(n))
    chord = (n - 2, 0)

    for _ in range(budget):
        hamw, entries = _hamiltonian_entries(rng, n)
        chord_even = -sum(hamw[: n - 2])  # closes the (n-1)-cycle at mean 0
        if case == "n-1":
            entries[chord] = chord_even
        else:
            entries[chord] = chord_even - _rand_margin(rng)
        a1 = from_entries(n, entries)

        a2_entries = _sample_remainder(rng, csr_at(build_csr(a1), 1), a1_pattern(n, n - 1))
        candidate = from_entries(n, {**entries, **a2_entries})
        verdict = verify_wielandt(candidate, numbering=identity_numbering)
        if (
            verdict.holds
            and verdict.case == case
            and weak_threshold_T1(candidate).t1 == wi
        ):
            return candidate
    raise GenerationError(f"budget of {budget} attempts exhausted for (n={n}, case={case}, seed={seed!r})")


# ---------------------------------------------------------------------------
# twice-optimal walk oracle


@dataclass(frozen=True)
class WalkResult:
    """A twice-optimal walk: maximal weight, then minimal length.

    ``interesting`` flags the extremal length DM(g, n) + g - 1 at which
    such walks certify bound attainment.
    """

    nodes: tuple[int, ...]
    length: int
    weight: MaxPlusScalar
    interesting: bool


def twice_optimal_walk(
    a: MaxPlusMatrix, i: int, j: int, t: int, max_n: int = 8
) -> WalkResult | None:
    """The twice-optimal walk from i to j with length = t modulo g.

    Considers walks through the unique critical g-cycle, g the critical
    girth; among those with length congruent to t it maximizes the exact
    weight and then minimizes the length.  Returns None when no such walk
    exists.  Walk lengths are capped at g*n + n - g - 1: any longer walk
    reduces, by removing and reinserting cycles of the critical g-cycle,
    to one within the cap with the same residue and at least the weight.
    """
    n = a.n
    if n > max_n:
        raise ValueError(f"instance too large for the walk oracle: n={n} > {max_n}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("walk endpoints out of range")
    sp = _cyclic_spectrum(a)
    crit = sp.crit
    g = crit.girth
    z0_cycles = _critical_cycles_of_length(a, crit, g)
    if len(z0_cycles) != 1:
        raise ValueError(
            f"the walk oracle needs a unique critical {g}-cycle, found {len(z0_cycles)}"
        )
    z0 = set(z0_cycles[0])
    lam = sp.lam
    normalized = scalar_times(negate(lam), a)
    nraw = normalized.raw()
    arcs = [
        (u, v, nraw[u][v]) for u in range(n) for v in range(n) if nraw[u][v] is not None
    ]

    cap = g * n + n - g - 1
    # dp[l][v][flag]: best normalized weight of a length-l walk from i to v,
    # flag marking whether a node of the critical cycle was visited.
    dp = [[[None, None] for _ in range(n)] for _ in range(cap + 1)]
    parent: list[list[list[tuple[int, int] | None]]] = [
        [[None, None] for _ in range(n)] for _ in range(cap + 1)
    ]
    dp[0][i][1 if i in z0 else 0] = Fraction(0)
    for l in range(cap):
        cur = dp[l]
        for u, v, w in arcs:
            vflag_extra = 1 if v in z0 else 0
            for f in (0, 1):
                x = cur[u][f]
                if x is None:
                    continue
                nf = f | vflag_extra
                s = x + w
                if dp[l + 1][v][nf] is None or s > dp[l + 1][v][nf]:
                    dp[l + 1][v][nf] = s
                    parent[l + 1][v][nf] = (u, f)

    best_w = None
    best_l = None
    for l in range(1, cap + 1):
        if (l - t) % g != 0:
            continue
        x = dp[l][j][1]
        if x is None:
            continue
        if best_w is None or x > best_w or (x == best_w and l < best_l):
            best_w, best_l = x, l
    if best_w is None:
        return None

    nodes = [j]
    v, f = j, 1
    for l in range(best_l, 0, -1):
        u, pf = parent[l][v][f]
        nodes.append(u)
        v, f = u, pf
    nodes.reverse()
    actual = best_w + scalar_power(lam, best_l).value
    return WalkResult(
        nodes=tuple(nodes),
        length=best_l,
        weight=MaxPlusScalar(actual),
        interesting=best_l == dm_bound(g, n) + g - 1,
    )
