"""Generated n = 20 instances hold the memos they inherit, and their
verdicts compute none but the input's own and a DM carved skeleton's.

    PYTHONPATH=src:tests python ci/memos20.py

The four instances of ci/instances20.py, as generated: each generator
call computes no spectrum by Karp and, at cyclicity 1, no closure; it
certifies one spectrum, its skeleton's, by the Hamiltonian cycle
(spectral._hamiltonian_spectrum), which equals a fresh computation and
which its candidate and the skeleton its verdict carves inherit; what
each instance inherits from its skeleton, rescaled, equals a fresh
computation, and at cyclicity 1 its triple's M is its spectrum's closure
itself.  Each skeleton a1 that
verify_dm on a parsed copy carves, in the copy's own labels, and that
takes the input's spectrum (extremal._skeleton(layer, sp)) holds the
spectrum it would compute for itself.  Both DM critical graphs are one
component on every node, so every carved a1 takes it, none computes
its own, and verify_dm computes no spectrum but the copy's own.  The
Wielandt verdicts, verify_wielandt on a parsed copy and
verify_crit_rc_wielandt on a parsed copy of each of the four, carve no
skeleton and compute no spectrum or CSR triple but the copy's own (see
extremal._not_below_csr).  Standard library only.
"""

from __future__ import annotations

import sys
import time

from maxplus import MaxPlusMatrix, csr, digraph, extremal, generate_dm, generate_wielandt, matrix, spectral
from oracles import memo_differences, spectrum_differences

start, skeletons, spectra, triples, certified, closures = time.time(), [], [], [], [], []
real, spectrum_of, triple_of = extremal._skeleton, spectral._spectrum, csr._build_csr
certify, close = extremal._hamiltonian_spectrum, matrix._int_closure


def checked(layer, sp):
    real(layer, sp)
    skeletons.append(layer)


extremal._skeleton = checked
spectral._spectrum = lambda b: spectra.append(b) or spectrum_of(b)
csr._build_csr = lambda b, k: triples.append(b) or triple_of(b, k)
extremal._hamiltonian_spectrum = lambda b: certified.append(b) or certify(b)
for module in (spectral, csr, digraph):
    module._int_closure = lambda rows: closures.append(rows) or close(rows)
for name, make in [("dm 19", lambda: generate_dm(20, 19, 0)), ("dm 3", lambda: generate_dm(20, 3, 0)),
                   ("wielandt n-1", lambda: generate_wielandt(20, 0, case="n-1")),
                   ("wielandt n", lambda: generate_wielandt(20, 0, case="n"))]:
    spectra.clear(), certified.clear(), closures.clear()
    a = make()
    dm, made, closed = name.startswith("dm"), len(spectra), len(closures)
    diffs = memo_differences(a)
    if made or len(certified) != 1 or certified[0]._spectrum is None:
        diffs.append(f"the generator computed {made} spectra and certified {len(certified)}")
    else:
        diffs += [f"certified {field}" for field in spectrum_differences(certified[0])]
    if closed != (a._csr.gamma > 1):
        diffs.append(f"the generator took {closed} closures at cyclicity {a._csr.gamma}")
    if (a._csr._m is a._spectrum._closure) != (a._csr.gamma == 1):
        diffs.append(f"M {'is not' if a._csr.gamma == 1 else 'is'} the spectrum's closure at cyclicity {a._csr.gamma}")
    identity, parsed = tuple(range(20)), MaxPlusMatrix(a.raw())
    verify = extremal.verify_dm if dm else extremal.verify_wielandt
    skeletons.clear(), spectra.clear(), triples.clear()
    holds = verify(parsed, identity).holds
    # verify_dm builds its carved skeleton's triple
    others = [b for b in spectra + (triples if not dm else []) if b is not parsed]
    parsed = MaxPlusMatrix(a.raw())
    spectra.clear(), triples.clear()
    holds = holds and extremal.verify_crit_rc_wielandt(parsed) == (name != "dm 3")
    others = len(others) + sum(b is not parsed for b in spectra + triples)
    own = [b for b in skeletons if b._spectrum is None]
    inherited = [spectrum_differences(b) for b in skeletons if b._spectrum is not None]
    print(f"{name}: generate certified {len(certified)} spectrum and computed {made}, inherited memos differ in {diffs}, verdicts as expected {holds}, "
          f"{len(inherited)} carved skeleton(s) took the input's spectrum, differing in {inherited}, "
          f"{len(own)} computed their own, the verdicts computed {others} spectra or triples of other matrices")
    if diffs or not holds or any(inherited) or own or others or bool(inherited) != dm:
        sys.exit(1)
print(f"every inherited memo equals a fresh computation ({time.time() - start:.1f} s)")
