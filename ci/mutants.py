"""Mutation checks: each mutant is one exact text change to src/maxplus
that the tests it names must catch.

    python ci/mutants.py

For each mutant, src is copied to a temporary directory, the one
replacement is made in the copy, and the named tests run against it as
`python -m pytest -x` in a child interpreter, from the repository root,
with the copy and tests on PYTHONPATH.  The mutant is killed when a test
fails.  A mutant marked equivalent changes no result, for the reason it
gives, and is not run.  Prints one line per mutant, and exits 1 when a
killable mutant survives, when pytest cannot run its tests (a test that
no longer exists), or when a mutant's old text does not occur exactly
once in its file: a change that moves the code re-aims the mutants that
probe it.  Standard library only; the tests need pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.stdout.reconfigure(line_buffering=True)


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/maxplus
    old: str
    new: str
    tests: tuple[str, ...] = ()  # pytest node ids, one of which must fail
    equivalent: str = ""  # why no test can fail, given instead of tests


KERNEL, CSR, EXTREMAL = "tests/test_kernel.py", "tests/test_csr.py", "tests/test_extremal.py"
SPECTRAL, MATRIX, DIGRAPH = "tests/test_spectral.py", "tests/test_matrix.py", "tests/test_digraph.py"

MUTANTS = [
    # csr: the one-sided test, the residues, the sweep, the searches
    Mutant(
        "excess counts equal entries", "csr.py",
        "return q is not None and (p is None or q > p)", "return q is not None and (p is None or q >= p)",
        (f"{KERNEL}::test_sweep_matches_the_full_ceiling_scan",),
    ),
    Mutant(
        "Q_gamma taken as M", "csr.py",
        "            rows = _int_mul(m, _finite_entries([row if i in crit.nodes else [] for i, row in enumerate(m)]))",
        "            rows = m",
        (f"{CSR}::test_lazy_triples_match_the_walk_oracle",),
    ),
    Mutant(
        "ceiling check accepts any bound up to the ceiling", "csr.py",
        "bound != _ceiling(triple)", "bound > _ceiling(triple)",
        (f"{KERNEL}::test_point_check_matches_the_full_sweep",),
    ),
    Mutant(
        "row transients written at column indices", "csr.py",
        "rows.update((i, t + 1) for i in failing if i in rows)", "rows.update((j, t + 1) for j in over if j in rows)",
        (f"{KERNEL}::test_sweep_matches_the_full_ceiling_scan",),
    ),
    Mutant(
        "holding row accumulates onto Q_t", "csr.py",
        "starts = [blank if i in failed else nxt[i] for i in left]", "starts = [blank if i in failed else residue[i] for i in left]",
        (f"{CSR}::test_each_row_retires_where_it_meets_the_residue",),
    ),
    Mutant(
        "holding row accumulates onto -inf", "csr.py",
        "starts = [blank if i in failed else nxt[i] for i in left]", "starts = [blank for i in left]",
        (f"{CSR}::test_each_row_retires_where_it_meets_the_residue",),
    ),
    Mutant(
        "mask keeps the entries equal to Q_t and drops those above", "csr.py",
        "from operator import ne", "from operator import eq as ne",
        (f"{CSR}::test_a_holding_row_steps_only_its_entries_above_the_residue",),
    ),
    Mutant(
        "failing row stepped as holding", "csr.py",
        "failed, blank = set(failing), [None] * n", "failed, blank = set(), [None] * n",
        (f"{CSR}::test_a_holding_row_steps_only_its_entries_above_the_residue",),
    ),
    Mutant(
        # the rows stepped stay exact, so no end result moves; the test
        # that names each holding row's entry operations sees the work
        "mask keeps the entries equal to Q_t", "csr.py",
        "else _above(at[i], residue[i]) for i in left]", "else _above(at[i], blank) for i in left]",
        (f"{CSR}::test_a_holding_row_steps_only_its_entries_above_the_residue",),
    ),
    Mutant(
        "T = t when every row retires at t = 1", "csr.py",
        "return (0 if t == 1 and _residue(triple, 0) == _int_identity(n) else t), t1, rows, cols",
        "return t, t1, rows, cols",
        (f"{CSR}::test_each_row_retires_where_it_meets_the_residue",),
    ),
    Mutant(
        "primitive cover at any cyclicity", "csr.py",
        " and crit.cyclicity == 1", "",
        (f"{CSR}::test_analyze_reads_T1_and_T_off_a_primitive_covering_critical_graph",),
    ),
    Mutant(
        "class masks stepped backwards", "csr.py",
        "sum(row[t % len(row)] << (i * m)", "sum(row[-t % len(row)] << (i * m)",
        (f"{CSR}::test_the_boolean_index_reads_each_components_residue_in_closed_form",),
    ),
    Mutant(
        "the cover shift reads Q_(k+1) for Q_(k-1)", "csr.py",
        "before, rows = _residue(triple, k - 1), []", "before, rows = _residue(triple, k + 1), []",
        (f"{CSR}::test_a_cover_shifts_each_residue_from_the_one_before",),
    ),
    Mutant(
        "the cover shift adds P(s, i) for P(i, s)", "csr.py",
        "p = triple._norm[i][s]", "p = triple._norm[s][i]",
        (f"{CSR}::test_a_cover_shifts_each_residue_from_the_one_before",),
    ),
    Mutant(
        "the packed product drops the row mask", "csr.py",
        "z |= (col * full) & ((y & full) * e)", "z |= (col * full) & (y * e)",
        (f"{CSR}::test_the_packed_bit_product_matches_the_bit_row_reference",),
    ),
    Mutant(
        "the packed product drops the column mask", "csr.py",
        "if col := x & e:", "if col := x:",
        (f"{CSR}::test_the_packed_bit_product_matches_the_bit_row_reference",),
    ),
    Mutant(
        "search returns one past T", "csr.py",
        "    return t + 1\n\n\ndef _int_product", "    return t + 2\n\n\ndef _int_product",
        (f"{CSR}::test_transient_search_matches_the_stepping_search",),
    ),
    Mutant(
        "crit-rc transient taken as the least", "csr.py",
        "max([*rows.values(), *cols.values()], default=None)", "min([*rows.values(), *cols.values()], default=None)",
        (f"{CSR}::test_crit_rc_profile_per_index",),
    ),
    Mutant(
        "remainder may equal CSR at t = 1", "csr.py",
        "x * d < rows[i][j] * e for i, j, x in entries", "x * d <= rows[i][j] * e for i, j, x in entries",
        (f"{EXTREMAL}::test_integer_remainder_test_matches_the_fraction_comparison",),
    ),
    # spectral: Karp, the critical graph, the hand-over, the visualization
    Mutant(
        "Karp takes the max over k", "spectral.py",
        "(x - y) * steps[k] < mean:", "(x - y) * steps[k] > mean:",
        (f"{SPECTRAL}::test_max_cycle_mean_matches_enumeration",),
    ),
    Mutant(
        "critical arcs close circuits of weight >= 0", "spectral.py",
        "w + back == 0", "w + back >= 0",
        equivalent="no closed walk of A - lambda weighs more than 0, so the sum is never positive",
    ),
    Mutant(
        "strong connectivity read off one row of the closure", "spectral.py",
        "all(None not in row for row in closure)", "None not in closure[0]",
        (f"{SPECTRAL}::test_spectrum_matches_the_tarjan_path",),
    ),
    Mutant(
        "critical components joined on a circuit of weight >= 0", "spectral.py",
        "x + y == 0}", "x + y >= 0}",
        (f"{SPECTRAL}::test_a_critical_arc_between_components_is_an_assertion",),
    ),
    Mutant(
        "an acyclic digraph strongly connected", "spectral.py",
        "_strongly_connected=a.n == 1)", "_strongly_connected=True)",
        (f"{SPECTRAL}::test_spectrum_matches_the_tarjan_path",),
    ),
    Mutant(
        "inherited closure not rescaled", "spectral.py",
        "closure = [[None if x is None else x * d // sp._d for x in row] for row in sp._closure]",
        "closure = sp._closure",
        (f"{CSR}::test_a_candidate_inherits_its_skeletons_spectrum_and_triple",),
    ),
    Mutant(
        "the certificate accepts an arc one unit above the potential", "spectral.py",
        "                if w > tight[j]:\n                    return None", "                if w > tight[j] + 1:\n                    return None",
        (f"{SPECTRAL}::test_the_hamiltonian_certificate_matches_karp_and_the_closure",),
    ),
    Mutant(
        "the certificate takes an arc below tight as critical", "spectral.py",
        "if w is not None and w >= tight[j]:", "if w is not None:",
        (f"{SPECTRAL}::test_the_hamiltonian_certificate_matches_karp_and_the_closure",),
    ),
    Mutant(
        "the potential accumulated against the cycle's arcs", "spectral.py",
        "accumulate(norm[i][i + 1] for i in range(n - 1))", "accumulate(-norm[i][i + 1] for i in range(n - 1))",
        (f"{SPECTRAL}::test_the_hamiltonian_certificate_matches_karp_and_the_closure",),
    ),
    Mutant(
        "the certified closure read from j back to i", "spectral.py",
        "closure = [[q - p for q in phi] for p in phi]", "closure = [[p - q for q in phi] for p in phi]",
        (f"{SPECTRAL}::test_the_hamiltonian_certificate_matches_karp_and_the_closure",),
    ),
    Mutant(
        "visualization not strict", "spectral.py",
        "else w is None or w < lv", "else w is None or w <= lv",
        (f"{SPECTRAL}::test_is_visualized_examples",),
    ),
    # digraph: the components read off a closure
    Mutant(
        "components joined on one-sided reachability", "digraph.py",
        "if x is not None and y is not None}", "if x is not None}",
        (f"{DIGRAPH}::test_scc_decompose_matches_tarjan_on_random_node_subsets",),
    ),
    # matrix: the kernel
    Mutant(
        "product keeps the least", "matrix.py",
        "if b is None or s > b:\n                    best[j] = s", "if b is None or s < b:\n                    best[j] = s",
        (f"{KERNEL}::test_mat_mul_matches_walk_dp_on_a_block_matrix",),
    ),
    Mutant(
        "product overwrites ties", "matrix.py",
        "if b is None or s > b:\n                    best[j] = s", "if b is None or s >= b:\n                    best[j] = s",
        equivalent="a tie stores the value already there",
    ),
    Mutant(
        "power multiplies by a square", "matrix.py",
        "step = step or entries", "step = entries",
        (f"{KERNEL}::test_mat_power_matches_walk_dp",),
    ),
    Mutant(
        "domination allows equality", "matrix.py",
        "            if y is None or x >= y:", "            if y is None or x > y:",
        (f"{MATRIX}::test_strict_domination",),
    ),
    # matrix: one least scale, from parse to render
    Mutant(
        "a result's scale not reduced to the least", "matrix.py",
        "    if e == d:\n        return d, rows", "    if e <= d:\n        return d, rows",
        (f"{MATRIX}::test_int_rows_match_the_fraction_reference_on_mixed_denominators",),
    ),
    Mutant(
        "a reduced scale with its entries left at the old one", "matrix.py",
        "map(floordiv, repeat(e), dens)", "map(floordiv, repeat(d), dens)",
        (f"{MATRIX}::test_int_rows_match_the_fraction_reference_on_mixed_denominators",),
    ),
    Mutant(
        "render without the gcd", "matrix.py",
        '        return str(x // g) if g == d else f"{x // g}/{d // g}"',
        '        return str(x) if d == 1 else f"{x}/{d}"',
        (f"{MATRIX}::test_int_rows_match_the_fraction_reference_on_mixed_denominators",),
    ),
    Mutant(
        "a value too long to print left to Python's message", "matrix.py",
        "    except ValueError:\n        limit", "    except ZeroDivisionError:\n        limit",
        ("tests/test_cli.py::test_a_computed_value_too_long_to_print_is_refused_with_one_line",),
    ),
    Mutant(
        "parse scales by the largest denominator, not the lcm", "matrix.py",
        "d = lcm(*{pq[1] for pq in values.values() if pq is not None})",
        "d = max({pq[1] for pq in values.values() if pq is not None}, default=1)",
        (f"{MATRIX}::test_int_rows_match_the_fraction_reference_on_mixed_denominators",),
    ),
    Mutant(
        "a value of 4301 digits parses", "semiring.py",
        "abs(value.numerator) >= _PRINTABLE", "abs(value.numerator) > _PRINTABLE",
        ("tests/test_cli.py::test_a_value_too_long_to_print_is_refused_at_once",),
    ),
    # extremal: the numbering search, the chords, the remainder tests, the walk oracle
    Mutant(
        "numbering search cuts ties", "extremal.py",
        "(top is None or w + x + back >= top)", "(top is None or w + x + back > top)",
        (f"{EXTREMAL}::test_heaviest_cycle_matches_the_full_support_search",),
    ),
    Mutant(
        "a chord may equal its path", "extremal.py",
        "(path is None or chord >= path)", "(path is None or chord > path)",
        (f"{EXTREMAL}::test_residue_chords_match_the_power_oracle",),
    ),
    Mutant(
        "a remainder arc may equal CSR(a) at t = 1", "extremal.py",
        "(q[i][j] is None or x >= q[i][j])", "(q[i][j] is None or x > q[i][j])",
        (
            f"{EXTREMAL}::test_weighted_3x3_verdicts_hold_exactly_when_t1_attains_the_bound",
            f"{EXTREMAL}::test_wielandt_remainder_on_the_inputs_csr_matches_the_carved_skeleton",
        ),
    ),
    Mutant(
        "the Wielandt remainder read against Q_gamma", "extremal.py",
        "_residue(build_csr(a), 1)", "_residue(build_csr(a), 0)",
        (f"{EXTREMAL}::test_wielandt_remainder_on_the_inputs_csr_matches_the_carved_skeleton",),
    ),
    Mutant(
        "DM's remainder tested on the input's own CSR", "extremal.py",
        "ConditionCheck(_below_csr_at_one(build_csr(a1), a2, d))", "ConditionCheck(_not_below_csr(a) <= taken)",
        (f"{EXTREMAL}::test_wielandt_remainder_on_the_inputs_csr_matches_the_carved_skeleton",),
    ),
    Mutant(
        "DM's remainder keeps the residue chords", "extremal.py",
        "(i, j) not in taken]", "(i, j) not in a1_arcs]",
        (f"{EXTREMAL}::test_wielandt_remainder_on_the_inputs_csr_matches_the_carved_skeleton",),
    ),
    Mutant(
        "a carved skeleton takes the input's spectrum without the one-component guard", "extremal.py",
        "if _cover(crit, layer.n) and all(",
        "if all(",
        (f"{EXTREMAL}::test_a_carved_skeleton_takes_the_inputs_lambda_and_critical_graph",),
    ),
    Mutant(
        "crit-rc skeleton not checked against the support", "extremal.py",
        "if fixed <= skeleton and all(rows[i][j] is not None for i, j in skeleton):", "if fixed <= skeleton:",
        (
            f"{EXTREMAL}::test_crit_rc_wielandt_matches_exhaustive_search",
            f"{EXTREMAL}::test_unweighted_digraphs_agree_with_their_successor_set_index",
        ),
    ),
    Mutant(
        "a candidate's entries compared with the skeleton's unscaled", "extremal.py",
        "elif x is None or x1 * d != x * d1:", "elif x is None or x1 != x:",
        (f"{CSR}::test_a_candidate_inherits_its_skeletons_spectrum_and_triple",),
    ),
    Mutant(
        "generate_dm leaves its skeleton's spectrum to Karp and the closure", "extremal.py",
        "    a1._spectrum = _hamiltonian_spectrum(a1)\n\n    wmax", "\n    wmax",
        (f"{CSR}::test_generator_computes_its_candidates_spectrum_once",),
    ),
    Mutant(
        "generate_wielandt leaves its skeleton's spectrum to Karp and the closure", "extremal.py",
        "    a1._spectrum = _hamiltonian_spectrum(a1)\n\n    scale", "\n    scale",
        (f"{CSR}::test_generator_computes_its_candidates_spectrum_once",),
    ),
    Mutant(
        "a generator's margin drawn at scale 1", "extremal.py",
        "    return rng.randint(1, 6 * den) * (_SCALE // den)", "    return rng.randint(1, 6 * den)",
        (f"{EXTREMAL}::test_generators_draw_the_same_matrices_for_the_same_seed",),
    ),
    Mutant(
        "walk oracle takes the longest walk", "extremal.py",
        "max(ends, key=lambda e: (e[0], -e[1]))", "max(ends, key=lambda e: (e[0], e[1]))",
        (f"{EXTREMAL}::test_the_walk_dp_on_the_kernel_matches_the_relaxation_it_replaced",),
    ),
]


def check(mutant: Mutant) -> str | None:
    """None when the mutant is killed or equivalent, else what went wrong."""
    text = (ROOT / "src" / "maxplus" / mutant.module).read_text()
    if text.count(mutant.old) != 1:
        return f"its old text occurs {text.count(mutant.old)} times in {mutant.module}"
    if mutant.equivalent:
        return None
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "maxplus" / mutant.module).write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(copy), str(ROOT / "tests")]), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        rc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return None if rc == 1 else "survived" if rc == 0 else f"pytest exit {rc}: the tests did not run"


failed = []
for mutant in MUTANTS:
    start = time.time()
    problem = check(mutant)
    outcome = problem or ("equivalent: " + mutant.equivalent if mutant.equivalent else "killed")
    print(f"{mutant.module}: {mutant.name}: {outcome} ({time.time() - start:.1f} s)")
    if problem:
        failed.append(mutant.name)
print(f"{len(MUTANTS)} mutants, " + (f"failed: {', '.join(failed)}" if failed else "every killable one killed"))
sys.exit(1 if failed else 0)
