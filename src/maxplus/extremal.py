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
any, are the heaviest.  The remainder test compares a2 with CSR(a1) at
t = 1 on the integers (see _remainder_below_csr), and
verify_crit_rc_wielandt skips a rotation that puts a critical arc off
the skeleton before that test.  verify_crit_rc_dm and the generators'
T1 check read the critical graph's index, on bit rows, from `csr`.

A generator builds its skeleton a1, with a1's spectrum and CSR triple,
once: the triple bounds the remainder it samples, and the verdict reads
it again once a1 equals the layer it carves (see _skeleton).  The
candidate, a1 plus entries strictly below CSR(a1) at t = 1, inherits
a1's spectrum and triple (see _inherit_skeleton): one spectrum a matrix.
A skeleton a1 that a verifier carves out of any other input takes the
input's lambda and critical graph, and its closure when that graph is
one component on every node (see _inherit_input).  This module only
proves and checks the hypotheses of these hand-overs, with one call per
memo; `spectral` and `csr` rescale and relabel what they hand over.

Node indices are 0-based throughout; a numbering is a permutation tuple
``sigma`` placing original node ``sigma[p]`` at position ``p``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product
from math import gcd

from .bounds import dm_bound, wielandt_bound
from .csr import CsrTriple, _below_csr_at_one, _boolean_index, _csr_entry, _inherit_triple, _int_csr_at
from .csr import _t1_at_ceiling, build_csr
from .digraph import _cycles, _successors, _support
from .matrix import MaxPlusMatrix, _finite_entries, _int_mul, _scaled, from_entries
from .semiring import MaxPlusScalar, _check_exponent
from .spectral import CritGraph, Spectrum, _cyclic_spectrum, _inherit_critical, _inherit_spectrum
from .spectral import _relabeled, critical_graph, spectrum

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
    """The numbering as a tuple, once it is checked to be a permutation of 0..n-1."""
    numbering = tuple(numbering)
    if sorted(numbering) != list(range(n)):
        raise ValueError(f"numbering {numbering!r} is not a permutation of 0..{n - 1}")
    return numbering


def apply_numbering(a: MaxPlusMatrix, numbering: tuple[int, ...]) -> MaxPlusMatrix:
    """Relabel so that position p holds original node numbering[p]."""
    numbering = _check_numbering(a.n, numbering)
    raw = a.raw()
    return MaxPlusMatrix._from_raw(
        [[raw[numbering[p]][numbering[q]] for q in range(a.n)] for p in range(a.n)]
    )


def decompose(a: MaxPlusMatrix, g: int, numbering: tuple[int, ...]) -> Decomposition:
    """Carve the permuted matrix into the a1 / b1 / a2 support layers."""
    n = a.n
    if not 1 <= g <= n:
        raise ValueError(f"need 1 <= g <= n, got g={g}")
    a1, b1, a2 = _carve(apply_numbering(a, numbering).raw(), a1_pattern(n, g), b1_pattern(n, g))
    return Decomposition(a1=a1, b1=b1, a2=a2, g=g, numbering=tuple(numbering))


def _carve(praw: list[list], *patterns: set[tuple[int, int]]) -> list[MaxPlusMatrix]:
    """One matrix per arc pattern, holding the entries of the rows praw on
    it, then one holding their entries on no pattern; -inf elsewhere."""
    n = len(praw)
    rest = set(product(range(n), repeat=2)).difference(*patterns)
    return [
        MaxPlusMatrix._from_raw([[praw[i][j] if (i, j) in arcs else None for j in range(n)] for i in range(n)])
        for arcs in (*patterns, rest)
    ]


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


def _support_check(praw, arcs) -> ConditionCheck:
    missing = [arc for arc in arcs if praw[arc[0]][arc[1]] is None]
    return ConditionCheck(not missing, detail=f"missing arcs {missing}" if missing else "")


def _critical_check(arcs, crit_arcs: frozenset[tuple[int, int]]) -> ConditionCheck:
    noncrit = [arc for arc in arcs if arc not in crit_arcs]
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
    """
    return _dm_verdict(a, numbering, None)


def _dm_verdict(a: MaxPlusMatrix, numbering: tuple[int, ...] | None, a1: MaxPlusMatrix | None) -> DmVerdict:
    """verify_dm, reusing a1, the skeleton layer of a under numbering with
    the triple its generator built, unless a1 is None (see _skeleton)."""
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

    _dm_conditions(a, sp, g, numbering, conditions, a1)
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


def _dm_conditions(
    a: MaxPlusMatrix, sp: Spectrum, g: int, numbering: tuple[int, ...], conditions: dict, a1: MaxPlusMatrix | None
) -> None:
    n = a.n
    dec = decompose(a, g, numbering)
    relabeled = _relabeled(sp.crit, numbering)
    a1 = _inherit_input(_skeleton(a1, dec.a1), sp, numbering, relabeled)
    # the Hamiltonian arcs belong to the a1 pattern
    conditions["hamiltonian_support"] = _support_check(dec.a1.raw(), _cycle_arcs(n))
    conditions["short_cycle_critical"] = _critical_check(_cycle_arcs(g), relabeled.arcs)

    conditions["coprime"] = ConditionCheck(gcd(g, n) == 1, detail=f"gcd({g},{n})={gcd(g, n)}")

    conditions["remainder_below_csr"] = ConditionCheck(_remainder_below_csr(a1, dec.a2))

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
        t = dm_bound(g, n) - 1  # (b1^t)_{g, n-1} must lie strictly below (CSR(a1) at t)_{g, n-1}
        d, (rows,) = _scaled([dec.b1])
        row, step = rows[g], _finite_entries(rows)
        for _ in range(t - 1):  # row g of b1^t, one row a step: t*nnz(b1) operations, not log t squarings
            (row,) = _int_mul([row], step)
        power = row[n - 1]
        lhs = MaxPlusScalar(None if power is None else Fraction(power, d))
        rhs = _csr_entry(build_csr(a1), t, g, n - 1)
        conditions["chord_power_below_csr"] = ConditionCheck(lhs < rhs, detail=f"{lhs} vs {rhs}")


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
    remainder must be strictly dominated by the CSR term of the skeleton.
    In search mode the numbering comes from the unique maximum-weight
    Hamiltonian cycle rotated so the unique maximum-weight (n-1)-cycle
    occupies the leading positions.
    """
    return _wielandt_verdict(a, numbering, None)


def _wielandt_verdict(
    a: MaxPlusMatrix, numbering: tuple[int, ...] | None, a1: MaxPlusMatrix | None
) -> WielandtVerdict:
    """verify_wielandt, reusing a1 like _dm_verdict."""
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

    case = _wielandt_conditions(a, sp, numbering, conditions, a1)
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
    a1: MaxPlusMatrix | None,
) -> str | None:
    n = a.n
    crit = sp.crit
    g_crit = crit.girth
    praw = apply_numbering(a, numbering).raw()
    relabeled = _relabeled(crit, numbering)
    skeleton = a1_pattern(n, n - 1)

    conditions["skeleton_support"] = _support_check(praw, sorted(skeleton))

    case: str | None = None
    if g_crit == n:
        conditions["named_cycle_critical"] = _critical_check(_cycle_arcs(n), relabeled.arcs)
        case = "n"
    elif g_crit == n - 1:
        conditions["named_cycle_critical"] = _critical_check(_cycle_arcs(n - 1), relabeled.arcs)
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

    layer, a2 = _carve(praw, skeleton)
    a1 = _inherit_input(_skeleton(a1, layer), sp, numbering, relabeled)
    conditions["remainder_below_csr"] = ConditionCheck(_remainder_below_csr(a1, a2))
    return case


def _skeleton(a1: MaxPlusMatrix | None, layer: MaxPlusMatrix) -> MaxPlusMatrix:
    """The skeleton layer a verifier carved, or a1 in its place.

    A generator builds its skeleton a1 first, with a1's spectrum and CSR
    triple, to sample the remainder below CSR(a1) at t = 1; handing a1
    to the verifier lets the remainder and chord-power checks read that
    triple instead of building it again for an equal matrix.  They run
    all the same, on a1, which must equal the layer entry for entry.
    """
    if a1 is None:
        return layer
    if a1 != layer:
        raise AssertionError("the skeleton handed to the verifier is not the layer it carves")
    return a1


def _inherit_input(a1: MaxPlusMatrix, sp: Spectrum, numbering: tuple[int, ...], crit: CritGraph) -> MaxPlusMatrix:
    """a1, the skeleton layer carved out of a under numbering, given a's
    spectrum sp and crit, crit(a) relabeled; it takes lambda(a) and crit
    when it holds no spectrum yet and every arc of crit lies on its
    support, and a's closure, relabeled, when crit is one component on
    every node (see spectral._inherit_spectrum), or else computes its own
    (see spectral._inherit_critical).  A generator's a1 keeps its spectrum.

    Lemma.  a1 <= a, read in the numbering's positions, with equality on
    the support of a1.  So a1's cycles are cycles of a, of the same
    weights, and lambda(a1) <= lambda(a); and a's critical cycles, whose
    arcs all lie on that support, are cycles of a1.  Hence lambda(a1) =
    lambda(a), and the cycles of a1 of that mean are exactly the critical
    cycles of a: crit(a1) = crit(a).  When that is one component on every
    node, a critical walk i -> j weighs P+(i, j), P = A - lambda, in a1
    and in a alike, at any cyclicity (step 1 of csr._primitive_cover):
    P+(a1) is P+(a) read under the numbering.
    """
    raw = a1.raw()
    if a1._spectrum is None and all(raw[i][j] is not None for i, j in crit.arcs):
        if len(crit.nodes) == a1.n and len(crit.scc.components) == 1:
            _inherit_spectrum(a1, sp, numbering, crit)
        else:
            _inherit_critical(a1, sp.lam, crit)
    return a1


def _remainder_below_csr(a1: MaxPlusMatrix, a2: MaxPlusMatrix) -> bool:
    """Is the remainder a2 strictly below CSR(a1) at t = 1, a1 the skeleton?

    In the Wielandt split a1 is the skeleton (Hamiltonian arcs + chord at
    (n-2, 0)) and a2 the complement of its pattern.  For n = 2 the
    residue-chord layer of the general decomposition would swallow the
    (1, 1) loop; it belongs to the remainder there, consistently with the
    2x2 characterization (attainment iff the two loops differ).
    """
    finite = [(i, j, x) for i, row in enumerate(a2.raw()) for j, x in enumerate(row) if x is not None]
    return _below_csr_at_one(build_csr(a1), finite)


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
    """
    triple = build_csr(a1)
    if triple.crit is None:
        return
    off = []
    for i, (row1, row) in enumerate(zip(a1.raw(), candidate.raw())):
        for j, (x1, x) in enumerate(zip(row1, row)):
            if x1 is not None and x != x1:
                return
            if x1 is None and x is not None:
                off.append((i, j, x))
    if _below_csr_at_one(triple, off):
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
    Hamiltonian cycles, each tried in its n rotations.  A rotation that
    puts some critical arc of a off the skeleton positions a1_pattern(n,
    n-1) cannot succeed, so it is skipped before its support and CSR
    checks.  Conversely such a cycle has mean lam(a) >= lam(a1), so once
    it lies in a1 it is critical there, and only the support and CSR
    checks remain; the a1 they test takes a's lambda and critical graph
    (see _inherit_input).  An explicit numbering is checked only if it is one of
    these candidates, which by the same argument loses no numbering that
    succeeds.
    """
    n = a.n
    _need_two_nodes(n)
    sp = _cyclic_spectrum(a)  # precondition: a finite cycle mean
    crit = sp.crit
    if numbering is not None:
        numbering = _check_numbering(n, numbering)
    if len(crit.nodes) < n or len(crit.arcs) > n + 1:
        return False
    candidates = [
        ham[k:] + ham[:k] for ham in _critical_cycles_of_length(a, crit, n) for k in range(n)
    ]
    if numbering is not None:
        candidates = [numbering] if numbering in candidates else []
    pattern = a1_pattern(n, n - 1)
    for cand in candidates:
        relabeled = _relabeled(crit, cand)
        if not relabeled.arcs <= pattern:
            continue  # crit(a) = crit(a1) would lie within the skeleton's arcs
        praw = apply_numbering(a, cand).raw()
        if not _support_check(praw, pattern).passed:
            continue
        a1, a2 = _carve(praw, pattern)
        if _remainder_below_csr(_inherit_input(a1, sp, cand, relabeled), a2):
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


def _margin(rng: random.Random) -> tuple[int, int]:
    """A random margin r/den in (0, 6], as its numerator and denominator."""
    den = rng.choice((1, 2, 3, 4))
    return rng.randint(1, 6 * den), den


def _rand_margin(rng: random.Random) -> Fraction:
    return Fraction(*_margin(rng))


def _hamiltonian_entries(
    rng: random.Random, n: int
) -> tuple[list[Fraction], dict[tuple[int, int], Fraction]]:
    """Random weights on the arcs (i, i+1), and (n-1, 0) closing them at mean 0."""
    hamw = [_rand_fraction(rng, -3, 3) for _ in range(n - 1)]
    entries = {(i, i + 1): hamw[i] for i in range(n - 1)}
    entries[(n - 1, 0)] = -sum(hamw)
    return hamw, entries


def _sample_remainder(
    rng: random.Random, triple: CsrTriple, taken: set[tuple[int, int]]
) -> dict[tuple[int, int], Fraction]:
    """Random entries off `taken`, each strictly below its entry of the
    triple's CSR at t = 1 by a random margin (see _margin).

    Each position off `taken` is drawn with probability 1/2, and a margin
    r/den for it when CSR at t = 1 is finite there.  With that entry as an
    int y scaled by d (see csr._int_csr_at), the result is the Fraction
    (y*den - r*d)/(d*den).  An acyclic triple draws only positions.
    """
    d, rows = _int_csr_at(triple, 1)
    entries: dict[tuple[int, int], Fraction] = {}
    for i in range(triple.n):
        for j in range(triple.n):
            if (i, j) in taken or rng.random() >= 0.5:
                continue
            y = rows[i][j]
            if y is not None:
                r, den = _margin(rng)
                entries[(i, j)] = Fraction(y * den - r * d, d * den)
    return entries


def generate_dm(n: int, g: int, seed) -> MaxPlusMatrix:
    """A random matrix attaining T1 = DM(g, n) under the identity numbering.

    One candidate is drawn and returned once it passes the verdict under
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
       each by a strict margin; coprimality is checked on entry.  Every
       arc off the skeleton lies strictly below CSR(a1) at t = 1, which
       is p_j - p_i by step 5's argument at t = 1, so the candidate
       inherits a1's spectrum and triple (see _inherit_skeleton).
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
    hamw, entries = _hamiltonian_entries(rng, n)
    p = [0, *accumulate(hamw)]
    entries[(g - 1, 0)] = -p[g - 1]
    a1 = from_entries(n, entries)

    wmax = max(max(abs(w) for w in entries.values()), Fraction(1))
    big_m = 1 + 2 * n * n * wmax

    b1_entries: dict[tuple[int, int], Fraction] = {}
    for i in range(g, n):
        for j in range(g, n):
            if (j - i - 1) % g != 0 or j == i + 1 or i == j:
                continue
            if j > i + 1 and rng.random() < 0.7:
                b1_entries[(i, j)] = p[j] - p[i] - _rand_margin(rng)
            elif j < i and rng.random() < 0.5:
                b1_entries[(i, j)] = p[j] - p[i] - big_m - _rand_margin(rng)

    taken = a1_pattern(n, g) | b1_pattern(n, g)
    a2_entries = _sample_remainder(rng, build_csr(a1), taken)
    candidate = from_entries(n, {**entries, **b1_entries, **a2_entries})
    _inherit_skeleton(candidate, a1)
    if not (_dm_verdict(candidate, tuple(range(n)), a1).holds and _t1_at_ceiling(candidate, dm_bound(g, n))):
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
    verdict's case is the one asked for, Wi(n) is the ceiling, and the
    remainder lies a margin below CSR(a1) at t = 1 by construction.  It
    is the only layer off the skeleton, so the candidate inherits a1's
    spectrum and triple (see _inherit_skeleton).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if case not in ("n-1", "n"):
        raise ValueError(f"case must be 'n-1' or 'n', got {case!r}")
    rng = random.Random(seed)
    chord = (n - 2, 0)
    hamw, entries = _hamiltonian_entries(rng, n)
    chord_even = -sum(hamw[: n - 2])  # closes the (n-1)-cycle at mean 0
    if case == "n-1":
        entries[chord] = chord_even
    else:
        entries[chord] = chord_even - _rand_margin(rng)
    a1 = from_entries(n, entries)

    a2_entries = _sample_remainder(rng, build_csr(a1), a1_pattern(n, n - 1))
    candidate = from_entries(n, {**entries, **a2_entries})
    _inherit_skeleton(candidate, a1)
    verdict = _wielandt_verdict(candidate, tuple(range(n)), a1)
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
