"""Generated n = 20 instances hold the memos they inherit, and their
verdicts compute none but the input's own and a DM carved skeleton's.

    PYTHONPATH=src:tests python ci/memos20.py

The four instances of ci/instances20.py, as generated: what each
inherits from its skeleton, rescaled, equals a fresh computation, and
at cyclicity 1 its triple's M is its spectrum's closure itself.  Each
skeleton a1 that verify_dm on a parsed copy carves, in the copy's own
labels, and that takes the input's spectrum (extremal._skeleton) holds
the spectrum it would compute for itself.  Both DM critical graphs are
one component on every node, so every carved a1 takes it, and none
computes its own.  The Wielandt verdicts, verify_wielandt on a parsed
copy and verify_crit_rc_wielandt on a parsed copy of each of the four,
carve no skeleton and compute no spectrum or CSR triple but the
copy's own (see extremal._not_below_csr).  Standard library only.
"""

from __future__ import annotations

import sys
import time

from maxplus import MaxPlusMatrix, csr, extremal, generate_dm, generate_wielandt, spectral
from oracles import memo_differences, spectrum_differences

start, inherited, own, computed = time.time(), [], [], []
real, spectrum_of, triple_of = extremal._skeleton, spectral._spectrum, csr._build_csr


def checked(a1, layer, sp):
    out = real(a1, layer, sp)
    if a1 is None:
        if out._spectrum is None:
            own.append(out)
        else:
            inherited.append(spectrum_differences(out))
    return out


extremal._skeleton = checked
spectral._spectrum = lambda b: computed.append(b) or spectrum_of(b)
csr._build_csr = lambda b, k: computed.append(b) or triple_of(b, k)
for name, a in [("dm 19", generate_dm(20, 19, 0)), ("dm 3", generate_dm(20, 3, 0)),
                ("wielandt n-1", generate_wielandt(20, 0, case="n-1")), ("wielandt n", generate_wielandt(20, 0, case="n"))]:
    diffs = memo_differences(a)
    if (a._csr._m is a._spectrum._closure) != (a._csr.gamma == 1):
        diffs.append(f"M {'is not' if a._csr.gamma == 1 else 'is'} the spectrum's closure at cyclicity {a._csr.gamma}")
    dm, identity, parsed = name.startswith("dm"), tuple(range(20)), MaxPlusMatrix(a.raw())
    verify = extremal.verify_dm if dm else extremal.verify_wielandt
    inherited.clear(), own.clear(), computed.clear()
    holds = verify(parsed, identity).holds
    others = 0 if dm else sum(b is not parsed for b in computed)  # verify_dm builds its carved skeleton's triple
    parsed = MaxPlusMatrix(a.raw())
    computed.clear()
    holds = holds and extremal.verify_crit_rc_wielandt(parsed) == (name != "dm 3")
    others += sum(b is not parsed for b in computed)
    print(f"{name}: inherited memos differ in {diffs}, verdicts as expected {holds}, "
          f"{len(inherited)} carved skeleton(s) took the input's spectrum, differing in {inherited}, "
          f"{len(own)} computed their own, the Wielandt verdicts computed {others} spectra or triples of other matrices")
    if diffs or not holds or any(inherited) or own or others or bool(inherited) != dm:
        sys.exit(1)
print(f"every inherited memo equals a fresh computation ({time.time() - start:.1f} s)")
