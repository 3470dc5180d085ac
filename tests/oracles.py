"""Brute-force and regression oracles the library is checked against.

Everything here is deliberately naive.  The oracles are of three kinds.

Independent: from the definitions alone, sharing no code with the
library paths under test.  walk_power and walk_powers step the walk DP
on exact Fractions; cycles_by_permutations enumerates elementary cycles
over node permutations, and max_cycle_mean_brute, critical_arcs_brute
and critical_girth_cyclicity_brute read lambda and the critical graph
off them.  best_walks_through and csr_walk_oracle give C S^t R as the
best walks through a critical node of each length modulo gamma, on a
matrix already normalized by lambda.  unique_max_weight_brute ranks
given cycles by their exact Fraction weights, where the library ranks
them on the spectrum's scaled integer rows.  twice_optimal_walks_brute
is the walk oracle's DP from the elementary cycles and
best_walks_through, with a longer length cap than the library's.
successor_set_index finds the index, period and girth of a 0/-inf
matrix by stepping the sets of walk ends until they repeat;
unweighted_disagreements compares analyze, the crit-rc profile and the
four verdicts with it.

Regression: the library's earlier code, kept to fix what the current
code must return.  hamiltonian_cycles_dfs and
cycles_of_length_by_filter are the two cycle searches the library ran
before its one exact-length DFS: they fix the lists, and the order,
that DFS must return.  transient_by_steps is the library's search for T
before it galloped: one power at a time, capped so a test cannot hang.
row_transients_by_steps finds, by the same stepping, where each row of
the powers turns periodic, which the sweep reads off the residue.
heaviest_cycle_exhaustive is the numbering searches' ranking as it was
before they looked at the critical graph first: every cycle of one
length in the whole support, ranked by exact weight.
sample_remainder_fractions is the generators' remainder draw as it was
before it read the integer residue: CSR at t = 1 as a Fraction, less a
Fraction margin; it must make the same draws and give the same entries.
spectrum_by_tarjan is the spectrum as the library computed it before it
read components and strong connectivity off the closure: Tarjan's
components, Karp on each of them (karp_scc), and the library's
_scc_decomposition (Tarjan again) on the critical arcs.  closure_live
is the Floyd-Warshall closure that reads pivot row k live, as the
library did before it read the row once per pivot.  boolean_index_int
is the critical graph's index as the library computed it before it ran
on bit rows: csr._transient on each component's 0/-inf rows in the int
kernel, against the residues in closed form of class_residue.
masked_m and residue_by_chain are the CSR triple as the library built
it before it read every residue off its closure M: C and R masked out
of a fresh M, and each residue C (S - lambda)^t R by a chain of
products on them.  twice_optimal_walk_relaxed is the walk oracle as it
ran before it stepped with the kernel's product: a relaxation over the
arcs with a table of parents, which fixes the walk, and so the nodes
among tied walks, that the library's backward scan must return.

Partial: oracles that take some of their parts from the library.
crit_rc_wielandt_brute checks only how the library narrows its search,
and weak_threshold_T1_full checks where the library stops its sweep and
its one-sided test (C S^t R <= A^t) against the full comparison with
B^t; both take the CSR terms from the library itself.
weak_threshold_T2 steps the powers of B - lambda, B the Nachtigall
matrix, and compares them with the CSR terms the library gives.
residue_chords_brute takes the support layers, the cycle mean and the
powers of a1 from the library, where verify_dm reads the chords off the
spectrum's integer rows.  memo_differences runs the library's own
spectrum and CSR triple on a copy with empty memos: what a generated
matrix inherits from its skeleton must equal what it would compute for
itself; spectrum_differences is memo_differences for the spectrum
alone.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from fractions import Fraction
from itertools import count, permutations
from math import gcd, lcm

from maxplus import (
    MaxPlusMatrix,
    csr,
    digraph,
    extremal,
    matrix,
    semiring,
    spectral,
    MaxPlusScalar,
    analyze,
    apply_numbering,
    build_csr,
    crit_row_col_profile,
    critical_graph,
    csr_at,
    decompose,
    dm_bound,
    mat_power,
    max_cycle_mean,
    strictly_dominated_by,
    verify_crit_rc_dm,
    verify_crit_rc_wielandt,
    verify_dm,
    verify_wielandt,
    wielandt_bound,
)


def raw_of(matrix):
    """Fraction-or-None rows of a MaxPlusMatrix."""
    return matrix.raw()


def walk_power(a, t):
    """Best weight of walks of length exactly t, per entry, by direct DP."""
    return walk_powers(a, t)[t]


def walk_powers(a, horizon):
    """[None, A^1, ..., A^horizon] as raw rows, one walk-extension DP step each."""
    raw = a.raw()
    n = a.n
    cur = [[raw[i][j] for j in range(n)] for i in range(n)]
    out = [None, cur]
    for _ in range(horizon - 1):
        nxt = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                x = cur[i][k]
                if x is None:
                    continue
                for j in range(n):
                    y = raw[k][j]
                    if y is None:
                        continue
                    s = x + y
                    if nxt[i][j] is None or s > nxt[i][j]:
                        nxt[i][j] = s
        cur = nxt
        out.append(cur)
    return out


def cycles_by_permutations(a):
    """All elementary cycles as (canonical node tuple, weight) via brute force."""
    raw = a.raw()
    n = a.n
    found = {}
    for k in range(1, n + 1):
        for nodes in permutations(range(n), k):
            if nodes[0] != min(nodes):
                continue  # canonical rotation: least node first
            ok = True
            total = Fraction(0)
            for s in range(k):
                w = raw[nodes[s]][nodes[(s + 1) % k]]
                if w is None:
                    ok = False
                    break
                total += w
            if ok:
                found[nodes] = total
    return found


def max_cycle_mean_brute(a):
    """Maximum weight/length over all elementary cycles; None if acyclic."""
    best = None
    for nodes, weight in cycles_by_permutations(a).items():
        mean = weight / len(nodes)
        if best is None or mean > best:
            best = mean
    return best


def critical_arcs_brute(a):
    """Arcs lying on some elementary cycle of maximal mean."""
    lam = max_cycle_mean_brute(a)
    arcs = set()
    for nodes, weight in cycles_by_permutations(a).items():
        if weight / len(nodes) == lam:
            k = len(nodes)
            for s in range(k):
                arcs.add((nodes[s], nodes[(s + 1) % k]))
    return arcs


def critical_girth_cyclicity_brute(a):
    """(girth, cyclicity) of the critical graph, from its elementary cycles.

    Critical cycles sharing a node lie in one component of the critical
    graph, and every cycle of that graph is critical, so a component's
    girth is its shortest critical cycle and its cyclicity the gcd of the
    critical cycle lengths.  The graph's girth is the largest component
    girth and its cyclicity the lcm of the component cyclicities.
    """
    lam = max_cycle_mean_brute(a)
    comps = []  # [node set, cycle lengths]
    for nodes, weight in cycles_by_permutations(a).items():
        if weight / len(nodes) != lam:
            continue
        merged = [set(nodes), [len(nodes)]]
        for comp in [c for c in comps if c[0] & merged[0]]:
            comps.remove(comp)
            merged[0] |= comp[0]
            merged[1] += comp[1]
        comps.append(merged)
    girth = max(min(lengths) for _, lengths in comps)
    cyclicity = lcm(*(gcd(*lengths) for _, lengths in comps))
    return girth, cyclicity


def best_walks_through(a, through, max_len):
    """DP table best[l][i][j]: top weight of length-l walks i->j hitting `through`.

    Walks count the set `through` as hit if any visited node (endpoints
    included) belongs to it.  Table rows are None when no such walk exists.
    """
    raw = a.raw()
    n = a.n
    hit = [v in through for v in range(n)]
    # state: (start i fixed per run) -> dp[l][v][flag]
    tables = []
    for i in range(n):
        dp = [[[None, None] for _ in range(n)]]
        start = [[None, None] for _ in range(n)]
        start[i][1 if hit[i] else 0] = Fraction(0)
        dp[0] = start
        for l in range(max_len):
            cur = dp[l]
            nxt = [[None, None] for _ in range(n)]
            for u in range(n):
                for f in (0, 1):
                    x = cur[u][f]
                    if x is None:
                        continue
                    row = raw[u]
                    for v in range(n):
                        w = row[v]
                        if w is None:
                            continue
                        nf = f | (1 if hit[v] else 0)
                        s = x + w
                        if nxt[v][nf] is None or s > nxt[v][nf]:
                            nxt[v][nf] = s
            dp.append(nxt)
        tables.append(dp)
    best = [[[None] * n for _ in range(n)] for _ in range(max_len + 1)]
    for i in range(n):
        for l in range(max_len + 1):
            for j in range(n):
                best[l][i][j] = tables[i][l][j][1]
    return best


def csr_walk_oracle(a_normalized, crit_nodes, gamma, t, max_len):
    """Entrywise best weight over walks through a critical node with
    length = t (mod gamma), lengths 1..max_len, on a mean-normalized matrix."""
    table = best_walks_through(a_normalized, crit_nodes, max_len)
    n = a_normalized.n
    out = [[None] * n for _ in range(n)]
    for l in range(1, max_len + 1):
        if (l - t) % gamma != 0:
            continue
        for i in range(n):
            for j in range(n):
                x = table[l][i][j]
                if x is not None and (out[i][j] is None or x > out[i][j]):
                    out[i][j] = x
    return out


def unique_max_weight_brute(a, cycles):
    """The single heaviest of the given cycles (node tuples) by exact weight
    in a, or None when the maximum is tied or the list is empty."""
    raw = a.raw()
    weights = [sum(raw[c[s]][c[(s + 1) % len(c)]] for s in range(len(c))) for c in cycles]
    best = max(weights, default=None)
    winners = [c for c, w in zip(cycles, weights) if w == best]
    return winners[0] if len(winners) == 1 else None


def hamiltonian_cycles_dfs(succ):
    """The Hamiltonian cycles of the sorted successor lists succ, as node
    tuples from node 0: a DFS extends the path from node 0 by every
    unused successor, in order, and keeps each full path closed by an arc
    back to 0."""
    n = len(succ)
    if n == 1:
        return [(0,)] if 0 in succ[0] else []
    found = []
    path = [0]
    used = [True] + [False] * (n - 1)

    def extend(u):
        if len(path) == n:
            if 0 in succ[u]:
                found.append(tuple(path))
            return
        for v in succ[u]:
            if not used[v]:
                used[v] = True
                path.append(v)
                extend(v)
                path.pop()
                used[v] = False

    extend(0)
    return found


def cycles_of_length_by_filter(succ, length):
    """The elementary cycles of exactly `length` nodes of the sorted successor
    lists succ, rooted at their least node: a DFS from every root lists each
    cycle of at most max(length, 1) nodes whose other nodes exceed the root,
    and those of another length are dropped."""
    cycles = []
    path = []
    on_path = [False] * len(succ)

    def dfs(root, u):
        for v in succ[u]:
            if v == root:
                cycles.append(tuple(path))
            elif v > root and not on_path[v] and len(path) < length:
                path.append(v)
                on_path[v] = True
                dfs(root, v)
                on_path[v] = False
                path.pop()

    for root in range(len(succ)):
        path.append(root)
        dfs(root, root)
        path.pop()
    return [c for c in cycles if len(c) == length]


def transient_by_steps(rows, gamma, cap=10_000):
    """Least T >= 0 with P^(T+gamma) = P^T, P the rows (numbers or None)
    of a matrix of cycle mean 0, by stepping through P's powers with a
    window of the last gamma + 1 of them; None once T > cap.

    The entries are scaled to integers by their common denominator, and
    each power is one walk-extension step of the previous one.
    """
    n = len(rows)
    d = lcm(*(x.denominator for row in rows for x in row if x is not None))
    p = [[None if x is None else int(x * d) for x in row] for row in rows]
    window = deque([[[0 if i == j else None for j in range(n)] for i in range(n)], p], maxlen=gamma + 1)
    for t in count(1):
        at = window[-1]
        if len(window) > gamma and window[0] == at:
            return t - gamma
        if t - gamma >= cap:
            return None
        nxt = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if at[i][k] is None:
                    continue
                for j in range(n):
                    if p[k][j] is not None and (nxt[i][j] is None or at[i][k] + p[k][j] > nxt[i][j]):
                        nxt[i][j] = at[i][k] + p[k][j]
        window.append(nxt)


def row_transients_by_steps(rows, gamma, horizon):
    """For each row i, the least T_i in 0..horizon with row i of
    P^(T_i+gamma) equal to row i of P^(T_i), P the rows (numbers or None),
    or None when there is none; every power is one walk-extension step of
    the previous one, in exact arithmetic on the entries as given.
    """
    n = len(rows)
    powers = [[[0 if i == j else None for j in range(n)] for i in range(n)]]
    for _ in range(horizon + gamma):
        at = powers[-1]
        nxt = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if at[i][k] is None:
                    continue
                for j in range(n):
                    if rows[k][j] is not None and (nxt[i][j] is None or at[i][k] + rows[k][j] > nxt[i][j]):
                        nxt[i][j] = at[i][k] + rows[k][j]
        powers.append(nxt)
    return [next((t for t in range(horizon + 1) if powers[t][i] == powers[t + gamma][i]), None) for i in range(n)]


def crit_rc_wielandt_brute(a, numbering=None):
    """verify_crit_rc_wielandt by exhaustive search over numberings.

    Tries every Hamiltonian cycle of the full digraph in all n rotations
    (or just the given numbering).  A numbering succeeds when the
    permuted matrix has the skeleton support (Hamiltonian arcs plus the
    chord (n-2, 0)), the Hamiltonian cycle is critical in the skeleton
    layer a1, and the remainder a2 is strictly below CSR(a1).
    """
    n = a.n
    critical_graph(a)  # precondition: a finite cycle mean
    if numbering is not None:
        candidates = [tuple(numbering)]
    else:
        raw = a.raw()
        succ = [[j for j in range(n) if raw[i][j] is not None] for i in range(n)]
        candidates = [ham[k:] + ham[:k] for ham in hamiltonian_cycles_dfs(succ) for k in range(n)]
    skeleton = {(i, i + 1) for i in range(n - 1)} | {(n - 1, 0), (n - 2, 0)}
    for cand in candidates:
        praw = apply_numbering(a, cand).raw()
        if any(praw[i][j] is None for (i, j) in skeleton):
            continue
        a1 = MaxPlusMatrix(
            [[praw[i][j] if (i, j) in skeleton else None for j in range(n)] for i in range(n)]
        )
        a2 = MaxPlusMatrix(
            [[praw[i][j] if (i, j) not in skeleton else None for j in range(n)] for i in range(n)]
        )
        ham_mean = sum(praw[i][(i + 1) % n] for i in range(n)) / n
        if MaxPlusScalar(ham_mean) != max_cycle_mean(a1):
            continue
        if strictly_dominated_by(a2, csr_at(build_csr(a1), 1)):
            return True
    return False


def weak_threshold_T1_full(a):
    """(t1, rows, cols) of weak_threshold_T1 by comparing every t up to the ceiling.

    A^t and B^t come from the walk DP, and A^t is compared with
    C S^t R (+) B^t at each t from 1 to min(Wi(n), DM(g, n)), with no
    early stop; the library's sweep computes no B^t and checks only
    C S^t R <= A^t.  t1 is one past the last failing t, and rows and
    cols map each critical index to one past the last t at which its row
    (resp. column) differs.  Like crit_rc_wielandt_brute, it takes the critical
    graph and the CSR terms from the library (build_csr, csr_at).
    """
    triple = build_csr(a)
    if triple.crit is None:
        return 1, {}, {}
    n = a.n
    nodes = sorted(triple.crit.nodes)
    ceiling = min(wielandt_bound(n), dm_bound(triple.crit.girth, n))
    raw = a.raw()
    b = MaxPlusMatrix(
        [[None if i in nodes or j in nodes else raw[i][j] for j in range(n)] for i in range(n)]
    )
    a_powers, b_powers = walk_powers(a, ceiling), walk_powers(b, ceiling)
    last_fail, row_fail, col_fail = 0, dict.fromkeys(nodes, 0), dict.fromkeys(nodes, 0)
    for t in range(1, ceiling + 1):
        at = a_powers[t]
        expected = [
            [y if x is None else x if y is None else max(x, y) for x, y in zip(crow, brow)]
            for crow, brow in zip(csr_at(triple, t).raw(), b_powers[t])
        ]
        if at == expected:
            continue
        last_fail = t
        for k in nodes:
            if at[k] != expected[k]:
                row_fail[k] = t
            if any(arow[k] != erow[k] for arow, erow in zip(at, expected)):
                col_fail[k] = t
    rows = {i: f + 1 for i, f in row_fail.items()}
    return last_fail + 1, rows, {j: f + 1 for j, f in col_fail.items()}


def weak_threshold_T2(a, horizon):
    """Least t >= 1 with (B - lambda)^s <= Q_s for every s from t to horizon,
    Q_s = C S^s R - s*lambda, by stepping B - lambda with the walk DP.

    B is a with its critical rows and columns pushed to -inf; C S^s R
    comes from the library's csr_at, as in weak_threshold_T1_full.  The
    value is T2 once no s past horizon fails.  For irreducible a, any
    horizon >= max(T, 1) will do: from there on P^s = Q_s, P = A - lambda,
    and (B - lambda)^s <= P^s, as B <= A.
    """
    triple = build_csr(a)
    lam = max_cycle_mean(a).value
    nodes = triple.crit.nodes
    b = MaxPlusMatrix(
        [[None if x is None or i in nodes or j in nodes else x - lam for j, x in enumerate(row)] for i, row in enumerate(a.raw())]
    )
    last_fail = 0
    for s, bs in enumerate(walk_powers(b, horizon)[1:], 1):
        q = [[None if x is None else x - s * lam for x in row] for row in csr_at(triple, s).raw()]
        if any(y is not None and (x is None or y > x) for brow, qrow in zip(bs, q) for y, x in zip(brow, qrow)):
            last_fail = s
    return last_fail + 1


def residue_chords_brute(a, g, numbering):
    """(passed, vacuous, detail) of verify_dm's residue_chords_below_paths.

    At every position (i, j) of the permuted matrix with g <= i,
    j > i + 1 and j = i + 1 (mod g) where the chord b1_ij is finite,
    (j-i-1)*lambda + b1_ij must be strictly below (a1^(j-i))_ij, the
    power taken of the whole a1 layer.
    """
    n = a.n
    dec = decompose(a, g, tuple(numbering))
    lam = max_cycle_mean(a).value
    b1 = dec.b1.raw()
    witnesses, qualifying = [], 0
    for i in range(g, n):
        for j in range(g, n):
            if j <= i + 1 or (j - i - 1) % g != 0:
                continue
            qualifying += 1
            if b1[i][j] is None:
                continue
            rhs = mat_power(dec.a1, j - i).raw()[i][j]
            if rhs is None or (j - i - 1) * lam + b1[i][j] >= rhs:
                witnesses.append((i, j))
    if qualifying == 0:
        return True, True, "no qualifying chord positions"
    return not witnesses, False, f"violated at {witnesses}" if witnesses else ""


def heaviest_cycle_exhaustive(a, k):
    """(cycle, passed, detail, top) of extremal._heaviest_cycle by the
    search it made before it looked at the critical graph: every k-cycle
    of the whole digraph of a, ranked by exact weight.

    cycle is the unique heaviest k-cycle as a node tuple from its least
    node, or None; passed and detail are the ranking's verdict as the
    library records it; top is the heaviest weight, None without a
    k-cycle.  The cycles come from hamiltonian_cycles_dfs for k = n and
    from cycles_of_length_by_filter otherwise.
    """
    raw = a.raw()
    succ = [[j for j, x in enumerate(row) if x is not None] for row in raw]
    cycles = hamiltonian_cycles_dfs(succ) if k == a.n else cycles_of_length_by_filter(succ, k)
    weights = [sum(raw[c[s]][c[(s + 1) % k]] for s in range(k)) for c in cycles]
    top = max(weights, default=None)
    best = unique_max_weight_brute(a, cycles)
    if best is not None:
        return best, True, "", top
    what = "Hamiltonian cycle" if k == a.n else f"{k}-cycle"
    if cycles:
        return None, False, f"maximum-weight {what} is not unique", top
    return None, False, "no Hamiltonian cycle" if k == a.n else f"no cycle of length {k}", top


# The residues read so far: how far a triple was read, not what it holds;
# the residues 1..gamma they yield are compared one by one instead.
LAZY_TRIPLE_FIELDS = ("_residues",)


def memo_differences(a):
    """The fields in which the spectrum and CSR triple stored on a differ
    from spectral._spectrum and csr._build_csr run on a copy of a with
    empty memos: every field of Spectrum and of CsrTriple but
    LAZY_TRIPLE_FIELDS, and every residue C S^k R - k*lambda, k =
    1..gamma.  A residue a has not read yet is computed from what it
    stores."""
    fresh = MaxPlusMatrix._from_raw(a.raw())
    fresh._spectrum = spectral._spectrum(fresh)
    fresh._csr = csr._build_csr(fresh, None)
    triple_fields = [f.name for f in dataclasses.fields(csr.CsrTriple) if f.name not in LAZY_TRIPLE_FIELDS]
    spectrum_fields = [f.name for f in dataclasses.fields(spectral.Spectrum)]
    pairs = [(a._spectrum, fresh._spectrum, spectrum_fields), (a._csr, fresh._csr, triple_fields)]
    diffs = [name for mine, theirs, names in pairs for name in names if getattr(mine, name) != getattr(theirs, name)]
    if a._csr.crit is not None:
        gamma = fresh._csr.gamma
        diffs += [f"residue {k}" for k in range(1, gamma + 1) if csr._residue(a._csr, k) != csr._residue(fresh._csr, k)]
    return diffs


def masked_m(sp, k):
    """(C, R) as int rows scaled like sp._norm: the columns and the rows at
    k's nodes of M = ((A - lambda)^gamma)^*, gamma = k.cyclicity, masked
    out of a fresh closure of (A - lambda)^gamma with 0 put on the
    diagonal, as the library carved them before it read them off M."""
    n = len(sp._norm)
    m = [row[:] for row in matrix._int_power(sp._norm, k.cyclicity)]
    matrix._int_closure(m)
    for i in range(n):
        m[i][i] = 0
    c = [[m[i][j] if j in k.nodes else None for j in range(n)] for i in range(n)]
    return c, [[m[i][j] if i in k.nodes else None for j in range(n)] for i in range(n)]


def residue_by_chain(sp, k, t):
    """C (S - lambda)^t R as int rows scaled like sp._norm, t >= 1 taken
    modulo gamma = k.cyclicity, by the chain of products the library took
    before it read Q_gamma as C R: C and R from masked_m, S - lambda
    carved from sp's rows at k's arcs, and C multiplied by it t times."""
    n = len(sp._norm)
    c, r = masked_m(sp, k)
    s_norm = [[(j, sp._norm[i][j]) for j in range(n) if (i, j) in k.arcs] for i in range(n)]
    for _ in range((t - 1) % k.cyclicity + 1):
        c = matrix._int_mul(c, s_norm)
    return matrix._int_mul(c, matrix._finite_entries(r))


def sample_remainder_fractions(rng, triple, taken):
    """extremal._sample_remainder by its Fraction formula: each position
    off taken is drawn with probability 1/2, and where csr_at(triple, 1)
    is finite the entry is that value less a margin r/den, drawn as den =
    choice((1, 2, 3, 4)), then r = randint(1, 6*den)."""
    ceilings = csr_at(triple, 1).raw()
    entries = {}
    for i in range(triple.n):
        for j in range(triple.n):
            if (i, j) in taken or rng.random() >= 0.5:
                continue
            if ceilings[i][j] is not None:
                den = rng.choice((1, 2, 3, 4))
                entries[(i, j)] = ceilings[i][j] - Fraction(rng.randint(1, 6 * den), den)
    return entries


def closure_live(rows):
    """Floyd-Warshall closure of int-or-None rows, in place, reading every
    entry d[k][j] of the pivot row when it is used, not once per pivot."""
    n = len(rows)
    for k in range(n):
        dk = rows[k]
        for di in rows:
            dik = di[k]
            if dik is None:
                continue
            for j in range(n):
                dkj = dk[j]
                if dkj is None:
                    continue
                s = dik + dkj
                if di[j] is None or s > di[j]:
                    di[j] = s


def karp_scc(rows, nodes):
    """Karp's maximum cycle mean of one strongly connected component, the
    sorted nodes of scaled int-or-None rows, in their units: walks start
    at the component's least node."""
    m = len(nodes)
    pos = {v: k for k, v in enumerate(nodes)}
    arcs = [(pos[u], pos[v], rows[u][v]) for u in nodes for v in nodes if rows[u][v] is not None]
    dp = [[None] * m for _ in range(m + 1)]
    dp[0][0] = 0
    for k in range(m):
        for u, v, w in arcs:
            if dp[k][u] is not None and (dp[k + 1][v] is None or dp[k][u] + w > dp[k + 1][v]):
                dp[k + 1][v] = dp[k][u] + w
    return max(
        min(Fraction(dp[m][v] - dp[k][v], m - k) for k in range(m) if dp[k][v] is not None)
        for v in range(m)
        if dp[m][v] is not None
    )


def spectrum_by_tarjan(a):
    """(lam, strongly_connected, crit) of spectral._spectrum by Tarjan's
    components: lam is the largest of Karp's means over the components
    with a cycle (None when there is none), the digraph is strongly
    connected when Tarjan finds one component, and crit is None or the
    critical graph's (nodes, arcs, components, girth, cyclicity), its
    arcs those that close a zero-weight circuit in the live-read closure
    of A - lam and its components from _scc_decomposition on them."""
    raw, n = a.raw(), a.n
    d = lcm(*(x.denominator for row in raw for x in row if x is not None))
    rows = [[None if x is None else int(x * d) for x in row] for row in raw]
    comps = digraph._tarjan([[j for j, x in enumerate(row) if x is not None] for row in rows], range(n))
    means = [karp_scc(rows, sorted(c)) for c in comps if len(c) > 1 or rows[min(c)][min(c)] is not None]
    if not means:
        return None, len(comps) == 1, None
    lam = max(means) / d
    d = lcm(d, lam.denominator)
    closure = [[None if x is None else int((x - lam) * d) for x in row] for row in raw]
    norm = [row[:] for row in closure]
    closure_live(closure)
    arcs = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if norm[i][j] is not None and closure[j][i] is not None and norm[i][j] + closure[j][i] == 0
    }
    nodes = {v for arc in arcs for v in arc}
    scc = digraph._scc_decomposition(digraph._successors(n, arcs), nodes)
    crit = (nodes, arcs, scc.components, digraph.maximal_girth(scc), digraph.global_cyclicity(scc))
    return lam, len(comps) == 1, crit


def spectrum_differences(a):
    """The fields in which the spectrum stored on a differs from
    spectral._spectrum run on a copy of a with empty memos: every field
    of Spectrum."""
    fresh = spectral._spectrum(MaxPlusMatrix._from_raw(a.raw()))
    names = [f.name for f in dataclasses.fields(spectral.Spectrum)]
    return [name for name in names if getattr(a._spectrum, name) != getattr(fresh, name)]


def class_residue(levels, gamma):
    """t -> the residue Q_t of a strongly connected 0/-inf matrix of
    cyclicity gamma as int-or-None rows, given the BFS levels l of its
    nodes (digraph._levels): 0 at (i, j) exactly when l(j) - l(i) = t
    (mod gamma), -inf elsewhere; t = 0 gives Q_gamma."""
    return lambda t: [[0 if (lj - li - t) % gamma == 0 else None for lj in levels] for li in levels]


def boolean_index_int(crit):
    """The transient of the critical graph as a 0/-inf matrix, the max over
    its components of csr._transient run from t = 0 on the component's
    int rows against class_residue."""
    succ = digraph._successors(max(crit.nodes) + 1, crit.arcs)
    worst = 0
    for comp in crit.scc.components:
        nodes = sorted(comp.nodes)
        rows = [[0 if (i, j) in crit.arcs else None for j in nodes] for i in nodes]
        levels = digraph._levels(succ, comp.nodes)
        residue = class_residue([levels[i] for i in nodes], comp.cyclicity)
        worst = max(worst, csr._transient(rows, 0, csr._int_identity(len(nodes)), residue))
    return worst


def twice_optimal_walks_brute(a):
    """{(i, j, r): (weight, length)} of the twice-optimal walk from i to j
    of length = r modulo g, r = 0..g-1, for every pair that has one, or
    None when no critical g-cycle is unique; g is the critical girth (the
    largest of its components'), the cycle found among the elementary
    cycles.  best_walks_through that cycle on A - lambda, lengths 1 to
    (g + 1)*n + g, past the library's cap, gives the best weight in
    A - lambda, then the least length; the weight is returned in A's
    units."""
    lam, (g, _) = max_cycle_mean_brute(a), critical_girth_cyclicity_brute(a)
    short = [nodes for nodes, w in cycles_by_permutations(a).items() if len(nodes) == g and w == lam * g]
    if len(short) != 1:
        return None
    shifted = MaxPlusMatrix([[None if x is None else x - lam for x in row] for row in a.raw()])
    cap = (g + 1) * a.n + g
    table, best = best_walks_through(shifted, set(short[0]), cap), {}
    for length in range(1, cap + 1):
        for i, row in enumerate(table[length]):
            for j, x in enumerate(row):
                key = (i, j, length % g)
                if x is not None and (key not in best or x > best[key][0]):
                    best[key] = (x, length)
    return {key: (x + length * lam, length) for key, (x, length) in best.items()}


def twice_optimal_walk_relaxed(a, i, j, t):
    """extremal.twice_optimal_walk as the library ran it before its walk DP
    stepped with the kernel's _int_mul: the same checks, then one
    relaxation over the arcs per length, with a table of parents that
    keeps, for each (node, visited) state, the first (u, f) in arc order
    (u ascending, then f = 0, 1) that reaches its best weight."""
    n = a.n
    if n > extremal._WALK_LIMIT:
        raise ValueError(f"instance too large for the walk oracle: n={n} > {extremal._WALK_LIMIT}")
    semiring._check_exponent("twice_optimal_walk", t)
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
        raise TypeError(f"walk endpoints must be ints, got {i!r} and {j!r}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("walk endpoints out of range")
    sp = spectral._cyclic_spectrum(a)
    g = sp.crit.girth
    z0_cycles = extremal._critical_cycles_of_length(a, sp.crit, g)
    if len(z0_cycles) != 1:
        raise ValueError(f"the walk oracle needs a unique critical {g}-cycle, found {len(z0_cycles)}")
    z0 = set(z0_cycles[0])
    arcs = [(u, v, w) for u, row in enumerate(sp._norm) for v, w in enumerate(row) if w is not None]
    cap = max(g * n + n - g - 1, g)
    dp = [[[None, None] for _ in range(n)] for _ in range(cap + 1)]
    parent = [[[None, None] for _ in range(n)] for _ in range(cap + 1)]
    dp[0][i][1 if i in z0 else 0] = 0
    for l in range(cap):
        for u, v, w in arcs:
            for f in (0, 1):
                x = dp[l][u][f]
                if x is None:
                    continue
                nf = f | (1 if v in z0 else 0)
                if dp[l + 1][v][nf] is None or x + w > dp[l + 1][v][nf]:
                    dp[l + 1][v][nf] = x + w
                    parent[l + 1][v][nf] = (u, f)
    best_w = best_l = None
    for l in range(1, cap + 1):
        x = dp[l][j][1]
        if (l - t) % g == 0 and x is not None and (best_w is None or x > best_w):
            best_w, best_l = x, l
    if best_w is None:
        return None
    nodes, v, f = [j], j, 1
    for l in range(best_l, 0, -1):
        v, f = parent[l][v][f]
        nodes.append(v)
    return extremal.WalkResult(
        nodes=tuple(reversed(nodes)),
        length=best_l,
        weight=MaxPlusScalar(Fraction(best_w, sp._d) + best_l * sp.lam.value),
        interesting=best_l == dm_bound(g, n) + g - 1,
    )


def successor_set_index(n, mask):
    """(T, gamma, g) of the 0/-inf matrix whose arc (i, j) is bit i*n + j of
    mask, from the definitions alone, or None unless it is strongly
    connected (every node reaches every node by a walk of length >= 1).

    Entry (i, j) of A^t is 0 exactly when a walk of length t leads from i
    to j, so A^t is the tuple of the sets of ends of the walks of length t
    from each node.  Stepping it from A^0 = I until the tuple repeats,
    first at A^(s+p) = A^s, gives T = s and the period p, which is gamma
    for a strongly connected digraph; g is the least t >= 1 at which some
    node is among its own ends."""
    succ = [frozenset(j for j in range(n) if mask >> (i * n + j) & 1) for i in range(n)]
    reach, seen, girth, reached = tuple(frozenset({i}) for i in range(n)), {}, None, [set() for _ in range(n)]
    for t in count():
        if reach in seen:
            return (seen[reach], t - seen[reach], girth) if all(len(r) == n for r in reached) else None
        seen[reach] = t
        reach = tuple(frozenset().union(*(succ[k] for k in ends)) for ends in reach)
        for i, ends in enumerate(reach):
            reached[i] |= ends
            if girth is None and i in ends:
                girth = t + 1


def unweighted_disagreements(n, mask):
    """Where the library departs from successor_set_index on the 0/-inf
    matrix of mask, or None unless it is strongly connected: analyze's T,
    T1 = max(T, 1) and gamma; verify_wielandt(a).holds == (T1 == Wi(n))
    for n >= 2; verify_dm(a).holds == (T1 == DM(g, n)) for g >= 2; and
    verify_crit_rc_wielandt (n >= 2) and verify_crit_rc_dm against
    crit_row_col_profile's overall == the bound, that overall being T1, as
    every node is critical.  Wi(n) = (n - 1)^2 + 1 and DM(g, n) = n +
    g*(n - 2) are written out here.  The documented 2x2 exception, where
    verify_dm fails with T1 = DM(2, 2), needs a loop that is not critical,
    which a 0/-inf strongly connected matrix has not: every arc is
    critical; it is named so that a case of it would show."""
    index = successor_set_index(n, mask)
    if index is None:
        return None
    big_t, gamma, g = index
    t1, wi, dm = max(big_t, 1), (n - 1) ** 2 + 1, n + g * (n - 2)
    a = MaxPlusMatrix([[0 if mask >> (i * n + j) & 1 else None for j in range(n)] for i in range(n)])
    report = analyze(MaxPlusMatrix(a.raw()))
    overall, _, _ = crit_row_col_profile(MaxPlusMatrix(a.raw()))
    found = [] if (report.t, report.t1, report.gamma, report.g) == (big_t, t1, gamma, g) else ["analyze"]
    found += [] if overall == t1 else ["crit_row_col_profile"]
    found += [] if verify_crit_rc_dm(MaxPlusMatrix(a.raw())) == (overall == dm) else ["verify_crit_rc_dm"]
    if n >= 2:
        found += [] if verify_wielandt(MaxPlusMatrix(a.raw())).holds == (t1 == wi) else ["verify_wielandt"]
        found += [] if verify_crit_rc_wielandt(MaxPlusMatrix(a.raw())) == (overall == wi) else ["verify_crit_rc_wielandt"]
    if g >= 2:
        exception = n == 2 and t1 == dm  # the 2x2 case: verify_dm does not hold there
        found += [] if verify_dm(MaxPlusMatrix(a.raw())).holds == (t1 == dm and not exception) else ["verify_dm"]
    return found
