"""Run every CI script in turn, as the workflow does.

    python ci/run_all.py

From any directory: each script runs from the repository root with
PYTHONPATH=src:tests.  The transcript hashes were pinned on Python 3.11,
and like the workflow this runs them there only.  Prints each script's
exit code and time, and exits 1 if any script failed.  Standard library
only.

These scripts repeat a tier-1 test at a larger size; a change to the
test, or to what it pins, goes into the script too:
- large: tests/test_csr.py::test_the_sweep_tests_only_failing_rows_and_steps_past_the_ceiling,
  test_the_residue_times_P_is_the_next_residue and test_residues_from_c_r_and_the_recurrence_match_the_chain
  (each residue against the chain, at the critical graph and each component), at n = 24 and 32;
- spectrum: tests/test_spectral.py::test_spectrum_matches_the_tarjan_path,
  against the tests' own Tarjan search (oracles.tarjan), at n = 24, 32 and 40,
  and test_the_hamiltonian_certificate_matches_karp_and_the_closure on the
  generators' skeletons at n = 24, 32, 48 and 64;
- heaviest: tests/test_extremal.py::test_heaviest_cycle_matches_the_full_support_search,
  at n = 9 and 10;
- unweighted: tests/test_extremal.py::test_unweighted_digraphs_agree_with_their_successor_set_index,
  every mask at n = 4 and slices at n = 5 and 6;
- weighted3: tests/test_extremal.py::test_weighted_3x3_verdicts_hold_exactly_when_t1_attains_the_bound,
  on all 4^9 matrices;
- stdlib_only and memos20: tests/test_csr.py::test_a_candidate_inherits_its_skeletons_spectrum_and_triple,
  up to n = 20; memos20 also tests/test_extremal.py::test_a_carved_skeleton_takes_the_inputs_lambda_and_critical_graph
  for verify_dm, test_generators_verify_one_candidate_and_power_the_chord_layer_once for each generator's one
  certified spectrum and no closure at cyclicity 1, and test_crit_rc_wielandt_tests_no_remainder_off_the_critical_graph for the Wielandt verdicts,
  at n = 20;
- mixed_denominators: tests/test_matrix.py::test_int_rows_match_the_fraction_reference_on_mixed_denominators,
  on n = 24 to 40 with a distinct prime denominator in every entry;
- exponent: tests/test_csr.py::test_analyze_reads_T1_and_T_off_a_primitive_covering_critical_graph
  and tests/test_kernel.py::test_analyze_searches_once_on_the_wielandt_case_n_family,
  at n = 48 and 64; also tests/test_csr.py::test_a_cover_shifts_each_residue_from_the_one_before
  on the case-n Wielandt instances there.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = [
    "stdlib_only", "instances20", "memos20", "large", "exponent", "heaviest", "transcript_hashes", "spectrum", "unweighted",
    "weighted3", "mixed_denominators", "loc",
]

env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
failed = []
for name in SCRIPTS:
    if name == "transcript_hashes" and sys.version_info[:2] != (3, 11):
        print(f"== ci/{name}.py: not run, the hashes are pinned on Python 3.11", flush=True)
        continue
    print(f"== ci/{name}.py", flush=True)
    start = time.time()
    rc = subprocess.run([sys.executable, f"ci/{name}.py"], cwd=ROOT, env=env).returncode
    print(f"== ci/{name}.py: exit {rc} ({time.time() - start:.1f} s)", flush=True)
    if rc != 0:
        failed.append(name)
print("all CI scripts passed" if not failed else f"failed: {', '.join(failed)}")
sys.exit(1 if failed else 0)
