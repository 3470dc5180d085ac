"""Generated n = 20 instances hold the memos they and their carved
skeletons inherit.

    PYTHONPATH=src:tests python ci/memos20.py

The four instances of ci/instances20.py, as generated: what each
inherits from its skeleton, rescaled, equals a fresh computation, and
at cyclicity 1 its triple's M is its spectrum's closure itself.  Each
skeleton a1 that a verdict on a parsed copy carves and that takes the
input's lambda and critical graph, relabeled, holds the spectrum it
would compute for itself.  All four critical graphs are one component on
every node, so some a1 takes the input's closure, read under the
numbering (spectral._inherit_spectrum with a numbering), and none need
close its own rows (spectral._inherit_critical).  Standard library only.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from maxplus import MaxPlusMatrix, extremal, generate_dm, generate_wielandt
from oracles import memo_differences, spectrum_differences

start, inherited, paths = time.time(), [], Counter()
real = extremal._inherit_input
for path in ("_inherit_spectrum", "_inherit_critical"):
    def counted(*args, path=path, take=getattr(extremal, path)):
        paths[path] += len(args) > 2  # a skeleton's hand-overs; a candidate's _inherit_spectrum has two arguments
        return take(*args)
    setattr(extremal, path, counted)


def checked(a1, sp, numbering, crit):
    fresh = a1._spectrum is None
    out = real(a1, sp, numbering, crit)
    if fresh and a1._spectrum is not None:
        inherited.append(spectrum_differences(a1))
    return out


extremal._inherit_input = checked
for name, a in [("dm 19", generate_dm(20, 19, 0)), ("dm 3", generate_dm(20, 3, 0)),
                ("wielandt n-1", generate_wielandt(20, 0, case="n-1")), ("wielandt n", generate_wielandt(20, 0, case="n"))]:
    diffs = memo_differences(a)
    if (a._csr._m is a._spectrum._closure) != (a._csr.gamma == 1):
        diffs.append(f"M {'is not' if a._csr.gamma == 1 else 'is'} the spectrum's closure at cyclicity {a._csr.gamma}")
    parsed, identity = MaxPlusMatrix(a.raw()), tuple(range(20))
    verify = extremal.verify_dm if name.startswith("dm") else extremal.verify_wielandt
    before = len(inherited)
    paths.clear()
    holds = verify(parsed, identity).holds and extremal.verify_crit_rc_wielandt(MaxPlusMatrix(a.raw())) == (name != "dm 3")
    print(f"{name}: inherited memos differ in {diffs}, verdicts as expected {holds}, "
          f"{len(inherited) - before} carved skeleton(s) inherited, differing in {inherited[before:]}: "
          f"{paths['_inherit_spectrum']} took the input's closure, {paths['_inherit_critical']} closed their own rows")
    if diffs or not holds or len(inherited) == before or any(inherited[before:]) or not paths["_inherit_spectrum"]:
        sys.exit(1)
print(f"every inherited memo equals a fresh computation ({time.time() - start:.1f} s)")
