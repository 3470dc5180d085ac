"""Generated n = 20 instances hold the memos they and their carved
skeletons inherit.

    PYTHONPATH=src:tests python ci/memos20.py

The four instances of ci/instances20.py, as generated: what each
inherits from its skeleton, rescaled, equals a fresh computation, and
at cyclicity 1 its triple's M is its spectrum's closure itself.  Each
skeleton a1 that a verdict on a parsed copy carves, in the copy's own
labels, and that takes the input's spectrum (extremal._skeleton) holds
the spectrum it would compute for itself.  All four critical graphs are
one component on every node, so every carved a1 takes it, and none
computes its own.  Standard library only.
"""

from __future__ import annotations

import sys
import time

from maxplus import MaxPlusMatrix, extremal, generate_dm, generate_wielandt
from oracles import memo_differences, spectrum_differences

start, inherited, own = time.time(), [], []
real = extremal._skeleton


def checked(a1, layer, sp):
    out = real(a1, layer, sp)
    if a1 is None:
        if out._spectrum is None:
            own.append(out)
        else:
            inherited.append(spectrum_differences(out))
    return out


extremal._skeleton = checked
for name, a in [("dm 19", generate_dm(20, 19, 0)), ("dm 3", generate_dm(20, 3, 0)),
                ("wielandt n-1", generate_wielandt(20, 0, case="n-1")), ("wielandt n", generate_wielandt(20, 0, case="n"))]:
    diffs = memo_differences(a)
    if (a._csr._m is a._spectrum._closure) != (a._csr.gamma == 1):
        diffs.append(f"M {'is not' if a._csr.gamma == 1 else 'is'} the spectrum's closure at cyclicity {a._csr.gamma}")
    parsed, identity = MaxPlusMatrix(a.raw()), tuple(range(20))
    verify = extremal.verify_dm if name.startswith("dm") else extremal.verify_wielandt
    inherited.clear(), own.clear()
    holds = verify(parsed, identity).holds and extremal.verify_crit_rc_wielandt(MaxPlusMatrix(a.raw())) == (name != "dm 3")
    print(f"{name}: inherited memos differ in {diffs}, verdicts as expected {holds}, "
          f"{len(inherited)} carved skeleton(s) took the input's spectrum, differing in {inherited}, "
          f"{len(own)} computed their own")
    if diffs or not holds or not inherited or any(inherited) or own:
        sys.exit(1)
print(f"every inherited memo equals a fresh computation ({time.time() - start:.1f} s)")
