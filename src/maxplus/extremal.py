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
The verdicts and the oracle read the spectrum's integer rows of
A - lambda: cycles are ranked, chords checked and walks weighed on the
integers.  A numbering search ranks the cycles of one length by a DFS
over the support that cuts a path once the closure of those rows shows
that no cycle through it can be as heavy as the best found so far (see
_heaviest_cycle); the critical cycles of that length, when there are
any, are the heaviest.  The Wielandt verdicts test the remainder on the
input's own CSR at t = 1, as the set of arcs not strictly below it,
which must lie on the skeleton's arcs (see _not_below_csr): they build
no skeleton, and verify_crit_rc_wielandt computes that set once for
every rotation it tries.  The DM verdict compares the input's entries
off the mapped a1 and b1 patterns with CSR(a1) at t = 1 on the integers
(see _dm_conditions).  verify_crit_rc_dm and the generators' T1 check
read the critical graph's index from `csr`, its 0/1 matrices each packed
in one int and multiplied in m big-int steps on m nodes.  A case-n
Wielandt candidate's critical graph is its Hamiltonian cycle, one
component on every node, so the residues its T1 check reads are M and
M's rows shifted along the cycle, with no product (see csr._residue).

A generator builds its skeleton a1, with a1's spectrum and CSR triple,
once: the triple bounds the remainder it samples.  a1's Hamiltonian
cycle is critical by construction, so its spectrum is certified off
that cycle's potential, not computed (see
spectral._hamiltonian_spectrum).  Every rational it
draws has a denominator from 1 to 4, and is drawn as an int at the one
scale 12 (_SCALE), so the skeleton's and the candidate's rows are built
directly, each reduced to its least scale once, with no Fraction.  The candidate, a1
plus entries strictly below CSR(a1) at t = 1, inherits a1's spectrum
and triple (see _inherit_skeleton): one spectrum a matrix.  Its
post-verification is the public verdict.  The DM verdict carves the
skeleton in the input's own labels, the a1 pattern mapped through the
numbering, and the skeleton takes the input's whole spectrum when every
critical arc lies on it and the critical graph is one component on
every node (see _skeleton), as on every generated candidate.  This
module only proves and checks the hypotheses of these hand-overs, with
one call per memo; `spectral` and `csr` rescale what they hand over and
read no numbering.

Node indices are 0-based throughout; a numbering is a permutation tuple
``sigma`` placing original node ``sigma[p]`` at position ``p``.  Only
`decompose` and `apply_numbering` build a permuted matrix; the verdicts
read the input's own rows at (sigma[p], sigma[q]) and name arcs in their
details by positions (p, q).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm

from .bounds import dm_bound, wielandt_bound
from .csr import CsrTriple, _below_csr_at_one, _boolean_index, _inherit_triple, _int_csr_at
from .csr import _cover, _residue, _t1_at_ceiling, build_csr
from .digraph import _cycles, _successors, _support
from .matrix import MaxPlusMatrix, _finite_entries, _int_mul, _text, from_entries
from .semiring import MaxPlusScalar, _check_exponent
from .spectral import CritGraph, Spectrum, _cyclic_spectrum, _hamiltonian_spectrum, _inherit_spectrum, critical_graph, spectrum

SEARCH_LIMIT = 10  # the pruned cycle search still lists every cycle tied below lambda, as beside a heavier loop
_WALK_LIMIT = 8  # largest n the twice-optimal walk oracle accepts


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


def _check_numbering(n: int, numbering: tuple[int, ...]) -> tuple[int, ...]:
    """The numbering as a tuple, once it is checked to be a permutation of
    0..n-1 whose entries are ints (a bool or a float equal to one is not)."""
    numbering = tuple(numbering)
    if not all(isinstance(p, int) and not isinstance(p, bool) for p in numbering):
        raise TypeError(f"numbering entries must be ints, got {numbering!r}")
    if sorted(numbering) != list(range(n)):
        raise ValueError(f"numbering {numbering!r} is not a permutation of 0..{n - 1}")
    return numbering


def apply_numbering(a: MaxPlusMatrix, numbering: tuple[int, ...]) -> MaxPlusMatrix:
    """Relabel so that position p holds original node numbering[p]."""
    numbering = _check_numbering(a.n, numbering)
    rows = a._rows
    return MaxPlusMatrix._from_ints(
        a._d, [[rows[numbering[p]][numbering[q]] for q in range(a.n)] for p in range(a.n)]
    )


def decompose(a: MaxPlusMatrix, g: int, numbering: tuple[int, ...]) -> Decomposition:
    """Carve the permuted matrix into the a1 / b1 / a2 support layers; a2
    is carved on every arc that neither other pattern holds."""
    n = a.n
    if not 1 <= g <= n:
        raise ValueError(f"need 1 <= g <= n, got g={g}")
    layers = a1_pattern(n, g), b1_pattern(n, g)
    b = apply_numbering(a, numbering)
    a1, b1, a2 = (
        MaxPlusMatrix._from_ints(b._d, _carve(b._rows, arcs))
        for arcs in (*layers, set(product(range(n), repeat=2)).difference(*layers))
    )
    return Decomposition(a1=a1, b1=b1, a2=a2, g=g, numbering=tuple(numbering))


def _carve(rows: list[list], arcs: set[tuple[int, int]]) -> list[list]:
    """New rows holding the entries of rows on the arcs given and -inf elsewhere."""
    return [[x if (i, j) in arcs else None for j, x in enumerate(row)] for i, row in enumerate(rows)]


def _mapped(arcs, numbering: tuple[int, ...]) -> set[tuple[int, int]]:
    """The arcs (numbering[p], numbering[q]) of the input named by the arcs
    (p, q) in positions."""
    return {(numbering[p], numbering[q]) for p, q in arcs}


# ---------------------------------------------------------------------------
# cycle searches


def hamiltonian_cycles(a: MaxPlusMatrix) -> list[tuple[int, ...]]:
    """All Hamiltonian cycles of the digraph of a, as node tuples starting at node 0."""
    return _cycles(_support(a), a.n)


def _check_search_limit(n: int) -> None:
    if n > SEARCH_LIMIT:
        raise ValueError(
            f"n={n} exceeds the exhaustive search limit {SEARCH_LIMIT}; "
            "supply an explicit numbering"
        )


def _need_two_nodes(n: int) -> None:
    if n < 2:
        raise ValueError("Wielandt attainment needs n >= 2")


def _rotations(cycle: tuple[int, ...]) -> set[tuple[int, ...]]:
    k = len(cycle)
    return {cycle[r:] + cycle[:r] for r in range(k)}


def _critical_cycles_of_length(a: MaxPlusMatrix, crit: CritGraph, length: int) -> list[tuple[int, ...]]:
    return _cycles(_successors(a.n, crit.arcs), length)


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


def _cycle_arcs(k: int) -> list[tuple[int, int]]:
    """The arcs of the cycle 0 -> 1 -> ... -> k-1 -> 0."""
    return [(i, i + 1) for i in range(k - 1)] + [(k - 1, 0)]


def _support_check(rows, arcs, numbering: tuple[int, ...]) -> ConditionCheck:
    """Do the input's rows hold every arc (p, q) of arcs, in positions?"""
    missing = [(p, q) for p, q in arcs if rows[numbering[p]][numbering[q]] is None]
    return ConditionCheck(not missing, detail=f"missing arcs {missing}" if missing else "")


def _critical_check(arcs, crit_arcs: frozenset[tuple[int, int]], numbering: tuple[int, ...]) -> ConditionCheck:
    """Is every arc (p, q) of arcs, in positions, critical in the input?"""
    noncrit = [(p, q) for p, q in arcs if (numbering[p], numbering[q]) not in crit_arcs]
    return ConditionCheck(not noncrit, detail=f"non-critical arcs {noncrit}" if noncrit else "")


def verify_dm(
    a: MaxPlusMatrix,
    numbering: tuple[int, ...] | None = None,
) -> DmVerdict:
    """Check the exact conditions equivalent to T1 attaining DM(g, n), g >= 2.

    With ``numbering=None`` the canonical numbering is searched for: the
    unique maximum-weight Hamiltonian cycle, rotated so the unique
    critical g-cycle occupies the leading positions.  Girth-1 critical
    graphs are rejected: no attainment characterization is known there.
    The verdict carves its skeleton a1 out of a itself (see _skeleton),
    on generate_dm's candidates too; unlike the Wielandt verdicts it
    cannot test the remainder on a's own CSR (see _not_below_csr).
    """
    n = a.n
    if numbering is not None:
        numbering = _check_numbering(n, numbering)
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

    _dm_conditions(a, sp, g, numbering, conditions)
    holds = all(c.passed for c in conditions.values())
    return DmVerdict(holds=holds, numbering=numbering, conditions=conditions)


class _TiedAtZero(Exception):
    """Ends _heaviest_cycle's search once two cycles tie at weight 0."""


def _heaviest_cycle(a: MaxPlusMatrix, k: int, key: str, conditions: dict) -> tuple[int, ...] | None:
    """The unique maximum-weight cycle of k nodes in the digraph of a, or
    None; the ranking's verdict is recorded under key.

    One branch-and-bound DFS over the support, on the spectrum's rows P =
    d(A - lambda) and their closure P+.  Every cycle of the ranking has k
    nodes, so its weight in P, d(w - k lambda), keeps both the order and
    the ties of its weight w.  A cycle is rooted at its least node and
    extended by larger nodes, as in digraph._cycles.  A path from the root
    to v, of weight w in P, is cut when P+(v, root) is -inf or w + P+(v,
    root) lies strictly below the heaviest cycle found so far.

    Proof that no heaviest cycle is cut: the rest of any cycle through the
    path is a walk from v to the root of length >= 1, which weighs at most
    P+(v, root); so the cycle weighs at most w + P+(v, root), and a cut
    drops only cycles strictly lighter than one already found.  A tie is
    never cut, so the best weight and whether it is tied come out as from
    ranking every k-cycle, and the first k-cycle found is never cut, so
    there is one exactly when the search finds one.  Every cycle weighs
    <= 0 in P, and exactly the critical cycles weigh 0: the critical
    k-cycles, when there are any, are exactly the winners of weight 0, and
    past the first of them every path whose bound is below 0 is cut.  Once
    a second one ties the first, no cycle can be heavier, so the verdict
    "not unique" is final and the search stops there.  A tie below 0 (no
    critical cycle has k nodes) is not final, and where many cycles tie
    there the search stays exponential: SEARCH_LIMIT.
    """
    sp = _cyclic_spectrum(a)
    norm, closure = sp._norm, sp._closure
    succ = _finite_entries(norm)
    path, on_path = [], [False] * a.n
    top, best, tied = None, None, False

    def extend(root: int, u: int, w: int) -> None:
        nonlocal top, best, tied
        if len(path) == k:
            x = norm[u][root]
            if x is not None and (top is None or w + x >= top):
                tied, top, best = w + x == top, w + x, tuple(path)  # best is read only when untied
                if tied and top == 0:
                    raise _TiedAtZero
            return
        for v, x in succ[u]:
            back = closure[v][root]
            if v > root and not on_path[v] and back is not None and (top is None or w + x + back >= top):
                path.append(v)
                on_path[v] = True
                extend(root, v, w + x)
                on_path[v] = False
                path.pop()

    try:
        for root in range(a.n - k + 1):
            path.append(root)
            extend(root, root, 0)
            path.pop()
    except _TiedAtZero:
        pass
    if top is not None and not tied:
        conditions[key] = ConditionCheck(True)
        return best
    what, none = ("Hamiltonian cycle", "no Hamiltonian cycle") if k == a.n else (f"{k}-cycle", f"no cycle of length {k}")
    _fail(conditions, key, none if top is None else f"maximum-weight {what} is not unique")
    return None


def _search_dm_numbering(a: MaxPlusMatrix, short_cycle: tuple[int, ...], conditions: dict) -> tuple[int, ...] | None:
    ham = _heaviest_cycle(a, a.n, "unique_max_weight_hamiltonian", conditions)
    if ham is None:
        return None
    numbering = _align_numbering(ham, short_cycle)
    if numbering is None:
        detail = "critical cycle does not sit consecutively on the Hamiltonian cycle"
        _fail(conditions, "short_cycle_consecutive", detail)
    return numbering


def _dm_conditions(a: MaxPlusMatrix, sp: Spectrum, g: int, numbering: tuple[int, ...], conditions: dict) -> None:
    """The DM conditions on a under numbering, in the input's own labels.

    Two layers are carved from a's int rows, on the a1 and b1 patterns
    mapped through the numbering: the skeleton a1 (see _skeleton), as a
    matrix, and the rows of the residue chords b1.  The remainder a2 is
    not: it is the list of a's finite entries off both, each of which
    must lie strictly below CSR(a1) at t = 1 (see
    csr._below_csr_at_one).  Every comparison is one of ints.
    """
    n, rows, d = a.n, a._rows, a._d
    a1_arcs, b1_arcs = _mapped(a1_pattern(n, g), numbering), _mapped(b1_pattern(n, g), numbering)
    a1, b1 = MaxPlusMatrix._from_ints(d, _carve(rows, a1_arcs)), _carve(rows, b1_arcs)
    _skeleton(a1, sp)
    # the Hamiltonian arcs belong to the a1 pattern
    conditions["hamiltonian_support"] = _support_check(rows, _cycle_arcs(n), numbering)
    conditions["short_cycle_critical"] = _critical_check(_cycle_arcs(g), sp.crit.arcs, numbering)

    conditions["coprime"] = ConditionCheck(gcd(g, n) == 1, detail=f"gcd({g},{n})={gcd(g, n)}")

    taken = a1_arcs | b1_arcs
    a2 = [(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x is not None and (i, j) not in taken]
    conditions["remainder_below_csr"] = ConditionCheck(_below_csr_at_one(build_csr(a1), a2, d))

    witnesses, qualifying = _residue_chord_witnesses(sp._norm, g, numbering)
    if qualifying == 0:
        chords = ConditionCheck(True, vacuous=True, detail="no qualifying chord positions")
    else:
        chords = ConditionCheck(not witnesses, detail=f"violated at {witnesses}" if witnesses else "")
    conditions["residue_chords_below_paths"] = chords

    if n < 2 * g:
        # b1 is the bare path g -> ... -> n-1 here: (j - i - 1) % g == 0
        # with |j - i - 1| <= n - g < g forces j = i + 1.  A path has no cycle.
        conditions["chord_power_below_csr"] = ConditionCheck(True, vacuous=True, detail="chord layer is acyclic")
    else:
        t = dm_bound(g, n) - 1  # (b1^t)_{g, n-1} must lie strictly below (CSR(a1) at t)_{g, n-1}, in positions
        first, last = numbering[g], numbering[n - 1]
        row, step = b1[first], _finite_entries(b1)
        for _ in range(t - 1):  # row g of b1^t, one row a step: t*nnz(b1) operations, not log t squarings
            (row,) = _int_mul([row], step)
        power, (e, q) = row[last], _int_csr_at(build_csr(a1), t)
        rhs = q[first][last]  # scaled by e, as power by d
        below = rhs is not None and (power is None or power * e < rhs * d)
        conditions["chord_power_below_csr"] = ConditionCheck(below, detail=f"{_text(power, d)} vs {_text(rhs, e)}")


def _residue_chord_witnesses(norm: list[list], g: int, numbering: tuple[int, ...]) -> tuple[list, int]:
    """The positions (i, j) that break the residue-chord condition, and the
    number of qualifying positions: g <= i, i + 1 < j < n, j = i + 1 mod g.

    The condition is (j-i-1)*lambda + b1_ij < (a1^(j-i))_ij at every
    qualifying position where b1_ij is finite, in the permuted matrix.
    It is read on norm, the spectrum's rows d(A - lambda), by running
    sums along the Hamiltonian path.  The only walk of a1 of length
    j - i from i to j is the path i -> i+1 -> ... -> j: the only arc of
    a1 out of a node k >= g is (k, k+1), or (n-1, 0) for k = n - 1, and
    a walk that takes (n-1, 0), and maybe (g-1, 0), before it reaches j
    needs more than j - i arcs.  So (a1^(j-i))_ij is the path's weight
    (-inf when an arc is missing), and subtracting (j - i)*lambda from
    both sides and scaling by d turns the condition into norm(b1_ij) <
    the path's sum in norm.
    """
    n = len(norm)
    witnesses, qualifying = [], 0
    for i in range(g, n):
        path = 0
        for j in range(i + 1, n):
            arc = norm[numbering[j - 1]][numbering[j]]
            path = None if path is None or arc is None else path + arc
            if j == i + 1 or (j - i - 1) % g:
                continue
            qualifying += 1
            chord = norm[numbering[i]][numbering[j]]
            if chord is not None and (path is None or chord >= path):
                witnesses.append((i, j))
    return witnesses, qualifying


def verify_wielandt(
    a: MaxPlusMatrix,
    numbering: tuple[int, ...] | None = None,
) -> WielandtVerdict:
    """Check the conditions equivalent to T1 attaining Wi(n) = (n-1)^2 + 1.

    Attainment forces the critical girth to be n-1 or n.  In both cases
    the support layers are taken with the chord at (n-2, 0), and the
    remainder must be strictly dominated by the CSR term of the skeleton,
    which is tested on the CSR term of the input (see _not_below_csr).
    In search mode the numbering comes from the unique maximum-weight
    Hamiltonian cycle rotated so the unique maximum-weight (n-1)-cycle
    occupies the leading positions.
    """
    n = a.n
    if numbering is not None:
        numbering = _check_numbering(n, numbering)
    _need_two_nodes(n)
    sp = _cyclic_spectrum(a)
    conditions: dict[str, ConditionCheck] = {}

    if numbering is None:
        _check_search_limit(n)
        numbering = _search_wielandt_numbering(a, conditions)
        if numbering is None:
            return WielandtVerdict(holds=False, numbering=None, case=None, conditions=conditions)

    case = _wielandt_conditions(a, sp, numbering, conditions)
    holds = all(c.passed for c in conditions.values())
    return WielandtVerdict(holds=holds, numbering=numbering, case=case, conditions=conditions)


def _search_wielandt_numbering(a: MaxPlusMatrix, conditions: dict) -> tuple[int, ...] | None:
    ham = _heaviest_cycle(a, a.n, "unique_max_weight_hamiltonian", conditions)
    if ham is None:
        return None
    sub = _heaviest_cycle(a, a.n - 1, "unique_max_weight_subcycle", conditions)
    if sub is None:
        return None
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
    sp: Spectrum,
    numbering: tuple[int, ...],
    conditions: dict[str, ConditionCheck],
) -> str | None:
    n, crit = a.n, sp.crit
    g_crit = crit.girth
    skeleton = sorted(a1_pattern(n, n - 1))

    conditions["skeleton_support"] = _support_check(a._rows, skeleton, numbering)

    case: str | None = None
    if g_crit == n:
        conditions["named_cycle_critical"] = _critical_check(_cycle_arcs(n), crit.arcs, numbering)
        case = "n"
    elif g_crit == n - 1:
        conditions["named_cycle_critical"] = _critical_check(_cycle_arcs(n - 1), crit.arcs, numbering)
        conditions["crit_strongly_connected"] = ConditionCheck(len(crit.scc.components) == 1)
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

    conditions["remainder_below_csr"] = ConditionCheck(_not_below_csr(a) <= _mapped(skeleton, numbering))
    return case


def _skeleton(layer: MaxPlusMatrix, sp: Spectrum) -> None:
    """Give the skeleton layer that the DM verdict carves out of the input
    a, in a's own labels, a's spectrum sp when the lemma below grants it.

    The layer takes sp whole (see spectral._inherit_spectrum) when every
    arc of crit(a) lies on its support and crit(a) is one component on
    every node, as on every generate_dm candidate; otherwise it computes
    its own when read.  The Wielandt verdicts carve no skeleton (see
    _not_below_csr); DM's remainder is compared with CSR(a1) beside the
    residue chords b1, which need not lie below it, so CSR(a) may differ
    from CSR(a1).

    Lemma.  The layer is <= a, with equality on its support.  So its
    cycles are cycles of a, of the same weights, and lambda(layer) <=
    lambda(a); and a's critical cycles, whose arcs all lie on that
    support, are cycles of the layer.  Hence lambda(layer) = lambda(a),
    and the cycles of the layer of that mean are exactly the critical
    cycles of a: crit(layer) = crit(a).  When that is one component on
    every node, both digraphs are strongly connected, and a critical walk
    i -> j weighs P+(i, j), P = A - lambda, in the layer and in a alike,
    at any cyclicity (step 1 of csr._primitive_cover): P+(layer) = P+(a).
    """
    crit, rows = sp.crit, layer._rows
    if _cover(crit, layer.n) and all(rows[i][j] is not None for i, j in crit.arcs):
        _inherit_spectrum(layer, sp)


def _not_below_csr(a: MaxPlusMatrix) -> set[tuple[int, int]]:
    """The arcs (i, j) of a that do not lie strictly below CSR(a) at t = 1:
    those with P(i, j) >= Q_1(i, j), or Q_1(i, j) = -inf, where P =
    d(A - lambda) is the spectrum's rows and Q_1 = C S R - lambda the
    residue at the same scale (see csr._residue).  A Wielandt verdict
    splits a under a numbering into the skeleton a1, the Hamiltonian arcs
    plus the chord (n-2, 0), and the remainder a2, everything else; by
    the lemma below, a2 < CSR(a1) at t = 1 exactly when this set lies on
    the skeleton's arcs, so no skeleton is built.  For n = 2 the (1, 1)
    loop, which DM's residue-chord layer would swallow, is in a2, as the
    2x2 characterization needs (attainment iff the two loops differ).

    Lemma.  Let a = a1 (+) a2 with disjoint supports.  Then a2 < CSR(a1)
    at t = 1 exactly when a2 < CSR(a) at t = 1.
    (=>) a then holds a1's spectrum and triple, so CSR(a) = CSR(a1):
    this is _inherit_skeleton's lemma (an acyclic a1 leaves a2 no finite
    entry, and then a = a1).
    (<=) Weigh walks in P, lambda = lambda(a), gamma the cyclicity of
    crit(a).  Q_1(i, j) is the weight of a heaviest walk from i to j of
    positive length = 1 (mod gamma) through a critical node: each term
    M(i, k) + (S - lambda)(k, l) + M(l, j) of Q_1 is such a walk, and
    _excess's proof, read at every length = t (mod gamma) and not only
    t, bounds any such walk by a term.  A critical arc (u, v) is such a walk, and
    any such walk from u to v, closed by the critical walk from v back
    to u, of weight -P(u, v), weighs at most P(u, v): so Q_1(u, v) = P(u,
    v), and every critical arc of a lies on a1.  So a1 has a's lambda and
    critical graph (_skeleton's lemma), and so a's gamma.  A walk of a1
    is one of a, of the same weight, so Q_1(a1) <= Q_1(a).  A heaviest
    walk W of a for Q_1(a)(i, j) takes no arc (u, v) of a2: there P(u, v)
    < Q_1(a)(u, v), and putting a walk of that weight in place of the
    arc gives a heavier walk from i to j through a critical node, of the
    same length modulo gamma.  So W is a walk of a1, Q_1(a1) = Q_1(a),
    and a2 < CSR(a) = CSR(a1) at t = 1.
    """
    norm, q = _cyclic_spectrum(a)._norm, _residue(build_csr(a), 1)
    return {
        (i, j) for i, row in enumerate(norm) for j, x in enumerate(row) if x is not None and (q[i][j] is None or x >= q[i][j])
    }


def _inherit_skeleton(candidate: MaxPlusMatrix, a1: MaxPlusMatrix) -> None:
    """Hand a1's spectrum and CSR triple over to candidate when the lemma
    below grants them.

    The lemma's hypothesis: candidate equals a1 on a1's support, and
    every other finite entry lies strictly below CSR(a1) at t = 1 (see
    csr._below_csr_at_one).  When it fails, or a1 is acyclic, nothing is
    stored, and candidate computes its own, as any matrix does.  The
    verdicts and _t1_at_ceiling then read what is stored, and run in full.

    Lemma.  Let lam = lam(a1), gamma the cyclicity of crit(a1), and weigh
    walks in A - lam, where every closed walk of a1 weighs <= 0 and
    exactly the critical cycles of a1 weigh 0.  A finite entry (i, j) of
    CSR(a1) - lam = C (S - lam) R is the weight of a walk of a1 from i to
    j of length 1 modulo gamma: m*gamma arcs to a critical k, the
    critical arc (k, l), m'*gamma arcs on to j.  So each arc (i, j) of
    candidate off a1's support is strictly lighter than some walk W_ij of
    a1 from i to j, of length 1 modulo gamma.  Replacing every such arc
    of a walk W of candidate by its W_ij gives a walk of a1 with the
    same ends, of length >= 1 and the same length modulo gamma, that
    weighs at least w(W), and more when W took such an arc.  Every walk
    of a1 is one of candidate, of the same weight.  Hence:
    - lambda and the critical graph: a cycle Z of candidate weighs at
      most a closed walk of a1, <= 0, and 0 only when Z is a cycle of a1
      of weight 0, a critical one.  So lam(candidate) = lam, and the
      cycles of weight 0, whose nodes and arcs form the critical graph,
      are a1's; its components, girth and cyclicity gamma are a1's.
    - strong connectivity: W_ij leads from i to j in a1, so a node
      reaches the same nodes in both, and the components are the same.
    - P+ = P (+) P^2 (+) ..., P = A - lam: entry (i, j) is the best
      weight of a walk of length >= 1 from i to j, and each walk of
      candidate is outweighed by one of a1, so P+ is a1's.
    - M, the closure of P^gamma: entry (i, j) is the best weight of a
      walk whose length is a positive multiple of gamma, a length the
      replacement keeps, so M is a1's, and so are C and R, M at the
      critical nodes.  S is the entries on the critical arcs, arcs of a1
      where the two agree, and so every residue C S^r R - r*lam is a1's
      too.

    Scale: a1's entries are among candidate's, so a1's scale divides
    candidate's, to which a1's memos are brought (see _inherit_triple).
    The entries are compared as ints, x1/d1 = x/d iff x1*d = x*d1.
    """
    triple = build_csr(a1)
    if triple.crit is None:
        return
    d1, d, off = a1._d, candidate._d, []
    for i, (row1, row) in enumerate(zip(a1._rows, candidate._rows)):
        for j, (x1, x) in enumerate(zip(row1, row)):
            if x1 is None:
                if x is not None:
                    off.append((i, j, x))
            elif x is None or x1 * d != x * d1:
                return
    if _below_csr_at_one(triple, off, d):
        _inherit_spectrum(candidate, spectrum(a1))
        _inherit_triple(candidate, triple)


# ---------------------------------------------------------------------------
# critical row/column variants


def verify_crit_rc_dm(a: MaxPlusMatrix) -> bool:
    """Does the critical graph's index, or 1 when it is 0, equal DM(g, n)?

    Equivalent to the transient of the critical rows and columns, which
    is max(index, 1), hitting the DM bound.  At n >= 2, DM(g, n) >= 2,
    so the max moves only the 1x1 loop, of index 0 = DM(1, 1).
    """
    crit = critical_graph(a)
    return max(_boolean_index(crit), 1) == dm_bound(crit.girth, a.n)


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

    By _not_below_csr's lemma, a2 < CSR(a1) at t = 1 exactly when the
    arcs of a not strictly below CSR(a) at t = 1 lie on the skeleton, and
    then crit(a) = crit(a1), whose arcs are among those.  So only the
    Hamiltonian cycles of crit(a) are tried: the Hamiltonian cycle of a
    numbering that succeeds is critical in a, and crit(a) lies within the
    n + 1 skeleton arcs: it covers all n nodes, has at most n + 1 arcs
    and at most two Hamiltonian cycles, each tried in its n rotations.
    Conversely such a cycle has mean lam(a) >= lam(a1), so once it lies
    in a1 it is critical there, and a rotation succeeds exactly when that
    set lies within its skeleton arcs and they within a's support.  The
    set is computed once, and no rotation builds a matrix.  An explicit
    numbering is checked only if it is one of these candidates, which by
    the same argument loses no numbering that succeeds.
    """
    n = a.n
    _need_two_nodes(n)
    crit = _cyclic_spectrum(a).crit  # precondition: a finite cycle mean
    if numbering is not None:
        numbering = _check_numbering(n, numbering)
    if len(crit.nodes) < n or len(crit.arcs) > n + 1:
        return False
    candidates = [
        ham[k:] + ham[:k] for ham in _critical_cycles_of_length(a, crit, n) for k in range(n)
    ]
    if numbering is not None:
        candidates = [numbering] if numbering in candidates else []
    if not candidates:
        return False
    pattern, rows, fixed = a1_pattern(n, n - 1), a._rows, _not_below_csr(a)
    for cand in candidates:
        skeleton = _mapped(pattern, cand)
        if fixed <= skeleton and all(rows[i][j] is not None for i, j in skeleton):
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


_SCALE = 12  # lcm(1, 2, 3, 4): the generators draw rationals of denominator 1 to 4 as ints at this scale


def _rand_value(rng: random.Random, lo: int, hi: int) -> int:
    """A random rational in [lo, hi] of denominator 1 to 4, scaled by _SCALE."""
    den = rng.choice((1, 2, 3, 4))
    return rng.randint(lo * den, hi * den) * (_SCALE // den)


def _margin(rng: random.Random) -> int:
    """A random margin r/den in (0, 6], den from 1 to 4, scaled by _SCALE."""
    den = rng.choice((1, 2, 3, 4))
    return rng.randint(1, 6 * den) * (_SCALE // den)


def _hamiltonian_rows(rng: random.Random, n: int) -> tuple[list[int], list[list]]:
    """Random weights on the arcs (i, i+1), and rows scaled by _SCALE that
    hold them and (n-1, 0), closing them at mean 0, with -inf elsewhere."""
    hamw = [_rand_value(rng, -3, 3) for _ in range(n - 1)]
    rows = [[None] * n for _ in range(n)]
    for i, w in enumerate(hamw):
        rows[i][i + 1] = w
    rows[n - 1][0] = -sum(hamw)
    return hamw, rows


def _sample_remainder(rng: random.Random, triple: CsrTriple, taken: set[tuple[int, int]], rows: list[list]) -> int:
    """Random entries off `taken`, written into rows scaled by _SCALE, each
    strictly below its entry of the triple's CSR at t = 1 by a random
    margin (see _margin); the scale of the rows after, lcm(d, _SCALE).

    Each position off `taken` is drawn with probability 1/2, and a margin
    for it when CSR at t = 1 is finite there.  That entry is an int y
    scaled by d (see csr._int_csr_at).  For the generators the scale stays
    _SCALE: their skeleton a1 has lambda = 0, so d is a1's scale, which
    divides _SCALE as a1's entries are draws.  An acyclic triple draws
    only positions.
    """
    d, csr = _int_csr_at(triple, 1)
    scale = lcm(d, _SCALE)
    f, g = scale // d, scale // _SCALE
    if g > 1:
        rows[:] = [[None if x is None else x * g for x in row] for row in rows]
    for i in range(triple.n):
        for j in range(triple.n):
            if (i, j) in taken or rng.random() >= 0.5:
                continue
            y = csr[i][j]
            if y is not None:
                rows[i][j] = y * f - _margin(rng) * g
    return scale


def generate_dm(n: int, g: int, seed) -> MaxPlusMatrix:
    """A random matrix attaining T1 = DM(g, n) under the identity numbering.

    One candidate is drawn and returned once it passes verify_dm under
    the identity numbering and csr._t1_at_ceiling, which checks T1 ==
    DM(g, n) at the two powers that decide it.  By the proof below it
    always does, so a failure raises AssertionError.  Let p_k = hamw[0]
    + ... + hamw[k-1]; an arc (i, j) is tight when it weighs p_j - p_i.

    1. The n + 1 skeleton arcs of a1 are tight: the Hamiltonian cycle
       closes at mean 0 and the chord (g-1, 0) weighs p_0 - p_(g-1).
    2. Every other arc is strictly below tight: a forward residue chord
       weighs p_j - p_i - margin, a backward one p_j - p_i - big_m -
       margin, and a remainder entry at most CSR(a1)_1(i, j) - margin,
       where CSR(a1)_1(i, j) <= p_j - p_i because every walk of a1 weighs
       at most its potential difference.
    3. The tight values telescope to 0 around a cycle, so a cycle weighs
       the sum over its arcs of (weight - tight value).  Hence lambda = 0
       and the critical graph is the skeleton's cycles of tight arcs, the
       Hamiltonian cycle and the g-cycle on positions 0..g-1: strongly
       connected, of girth g, with a unique critical g-cycle.
    4. The remainder and residue-chord conditions hold by construction,
       each by a strict margin; coprimality is checked on entry.  a1's
       spectrum is certified by its Hamiltonian cycle, critical by steps
       1 and 3, and the potential p, with no Karp table and no closure
       (see spectral._hamiltonian_spectrum; were it refused, a1 would
       compute its own).  Every arc off the skeleton lies strictly below
       CSR(a1) at t = 1, which is p_j - p_i by step 5's argument at
       t = 1, so the candidate inherits a1's spectrum and triple (see
       _inherit_skeleton).
    5. chord_power_below_csr (n >= 2g): the verifier's b1 also holds the
       path arcs (i, i+1), i >= g.  A walk of b1 of length DM - 1 from g
       to n - 1 takes a backward chord, since forward arcs only climb and
       DM - 1 > n - 1 - g, so it weighs at most p_(n-1) - p_g - big_m -
       margin.  CSR(a1) at DM - 1 is p_(n-1) - p_g at (g, n-1): every
       node of a1 is critical, so the entry is finite, and every walk of
       a1 weighs its potential difference.
    6. So T1 = DM(g, n) by the paper's characterization, which
       _t1_at_ceiling checks independently; DM(g, n) is the ceiling
       min(Wi(n), DM(girth, n)) it asks for, the girth being g.
    """
    if not 2 <= g < n:
        raise ValueError(f"need 2 <= g < n, got g={g}, n={n}")
    if gcd(g, n) != 1:
        raise ValueError(f"g={g} and n={n} are not coprime")
    rng = random.Random(seed)
    hamw, rows = _hamiltonian_rows(rng, n)
    p = [0, *accumulate(hamw)]
    rows[g - 1][0] = -p[g - 1]
    a1 = MaxPlusMatrix._from_ints(_SCALE, [row[:] for row in rows])
    a1._spectrum = _hamiltonian_spectrum(a1)

    wmax = max(*(abs(w) for row in rows for w in row if w is not None), _SCALE)
    big_m = _SCALE + 2 * n * n * wmax

    for i in range(g, n):
        for j in range(g, n):
            if (j - i - 1) % g != 0 or j == i + 1 or i == j:
                continue
            if j > i + 1 and rng.random() < 0.7:
                rows[i][j] = p[j] - p[i] - _margin(rng)
            elif j < i and rng.random() < 0.5:
                rows[i][j] = p[j] - p[i] - big_m - _margin(rng)

    scale = _sample_remainder(rng, build_csr(a1), a1_pattern(n, g) | b1_pattern(n, g), rows)
    candidate = MaxPlusMatrix._from_ints(scale, rows)
    _inherit_skeleton(candidate, a1)
    if not (verify_dm(candidate, tuple(range(n))).holds and _t1_at_ceiling(candidate, dm_bound(g, n))):
        raise AssertionError(f"generated DM candidate fails its post-verification (n={n}, g={g}, seed={seed!r})")
    return candidate


def generate_wielandt(n: int, seed, case: str = "n-1") -> MaxPlusMatrix:
    """A random matrix attaining T1 = Wi(n) under the identity numbering.

    case "n-1" makes the (n-1)-cycle critical (the Hamiltonian cycle is
    then also left at the critical mean, so the whole skeleton digraph is
    critical and the critical rows and columns attain the bound as well);
    case "n" makes only the Hamiltonian cycle critical.  One candidate is
    drawn, checked like generate_dm's and returned; steps 1 to 3 of
    generate_dm's proof carry over, with the chord at (n-2, 0) and no
    residue chords.  In case "n-1" all n + 1 skeleton arcs are tight, so
    the critical graph is the skeleton, of girth n - 1, with a unique
    critical (n-1)-cycle; in case "n" the chord sits a margin below
    tight, so it is the Hamiltonian cycle, of girth n.  Either way the
    Hamiltonian cycle is critical, so a1's spectrum is certified by it,
    with no Karp table and no closure (see spectral._hamiltonian_spectrum),
    the verdict's case is the one asked for, Wi(n) is the ceiling, and
    the remainder lies a margin below CSR(a1) at t = 1 by construction.
    It is the only layer off the skeleton, so the candidate inherits a1's
    spectrum and triple (see _inherit_skeleton), and the verdict reads
    CSR at t = 1 off that triple, where sampling left it, with no product.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if case not in ("n-1", "n"):
        raise ValueError(f"case must be 'n-1' or 'n', got {case!r}")
    rng = random.Random(seed)
    hamw, rows = _hamiltonian_rows(rng, n)
    chord_even = -sum(hamw[: n - 2])  # closes the (n-1)-cycle at mean 0
    rows[n - 2][0] = chord_even if case == "n-1" else chord_even - _margin(rng)
    a1 = MaxPlusMatrix._from_ints(_SCALE, [row[:] for row in rows])
    a1._spectrum = _hamiltonian_spectrum(a1)

    scale = _sample_remainder(rng, build_csr(a1), a1_pattern(n, n - 1), rows)
    candidate = MaxPlusMatrix._from_ints(scale, rows)
    _inherit_skeleton(candidate, a1)
    verdict = verify_wielandt(candidate, tuple(range(n)))
    if not (verdict.holds and verdict.case == case and _t1_at_ceiling(candidate, wielandt_bound(n))):
        raise AssertionError(
            f"generated Wielandt candidate fails its post-verification (n={n}, case={case}, seed={seed!r})"
        )
    return candidate


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
    a: MaxPlusMatrix, i: int, j: int, t: int
) -> WalkResult | None:
    """The twice-optimal walk from i to j with length = t modulo g.

    Considers walks through the unique critical g-cycle, g the critical
    girth; among those with length congruent to t it maximizes the exact
    weight and then minimizes the length.  Returns None when no such walk
    exists.  Walk lengths are capped at max(g*n + n - g - 1, g): for n >= 2
    any longer walk reduces, by removing and reinserting cycles of the
    critical g-cycle, to one within the cap with the same residue and at
    least the weight; at n = 1 the walks circle the loop, of length g = 1.

    The best weights come from one row per length over the 2n states
    (node, whether the critical cycle was visited), each the product of
    the one before by the state step with the kernel's _int_mul.  The
    walk is then read backwards: at each length it steps back to the
    least state 2*u + f, so u ascending and then f = 0, 1, whose weight
    plus the arc's is the step's weight.  Among tied walks that picks the
    nodes a forward relaxation picks when it keeps the first best
    predecessor of each state.
    """
    n = a.n
    if n > _WALK_LIMIT:
        raise ValueError(f"instance too large for the walk oracle: n={n} > {_WALK_LIMIT}")
    _check_exponent("twice_optimal_walk", t)
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
        raise TypeError(f"walk endpoints must be ints, got {i!r} and {j!r}")
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
    # state 2*v + f: at node v, f marking whether a node of the critical
    # cycle was visited; an arc (u, v) of norm, the spectrum's rows
    # d(A - lambda), leads from 2*u + f to 2*v + (f or v in z0)
    step = [[None] * (2 * n) for _ in range(2 * n)]
    for u, row in enumerate(sp._norm):
        for v, w in enumerate(row):
            for f in (0, 1):
                step[2 * u + f][2 * v + (f or v in z0)] = w
    # dp[l][s]: best weight of a length-l walk from i to state s
    dp = [[None] * (2 * n)]
    dp[0][2 * i + (i in z0)] = 0
    finite = _finite_entries(step)
    for _ in range(max(g * n + n - g - 1, g)):
        dp += _int_mul(dp[-1:], finite)

    ends = [(x, l) for l, row in enumerate(dp) if l and (l - t) % g == 0 and (x := row[2 * j + 1]) is not None]
    if not ends:
        return None
    best_w, best_l = max(ends, key=lambda e: (e[0], -e[1]))
    nodes, s = [j], 2 * j + 1
    for l in range(best_l, 0, -1):  # back to the least state r whose step attains dp[l][s]
        s = next(r for r, x in enumerate(dp[l - 1]) if x is not None and (w := step[r][s]) is not None and x + w == dp[l][s])
        nodes.append(s // 2)
    nodes.reverse()
    return WalkResult(
        nodes=tuple(nodes),
        length=best_l,
        weight=MaxPlusScalar(Fraction(best_w, sp._d) + best_l * sp.lam.value),
        interesting=best_l == dm_bound(g, n) + g - 1,
    )
