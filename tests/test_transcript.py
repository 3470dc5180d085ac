"""The A/B transcript tool (tests/transcript.py) is repeatable and sees a
one-off change in T1, and a change that only a library reader sees."""

from maxplus import csr
from transcript import transcript


def test_transcript_repeats_and_moves_with_T1(monkeypatch):
    codes, digest = transcript(seed=4, count=40)
    assert transcript(seed=4, count=40) == (codes, digest)
    assert sum(codes.values()) >= 40 * 14 and set(codes) <= {0, 1, 2}

    sweep = csr._sweep

    def t1_off_by_one(*args, **kwargs):
        t, at, t1, rows, cols = sweep(*args, **kwargs)
        return t, at, t1 + 1, rows, cols

    monkeypatch.setattr(csr, "_sweep", t1_off_by_one)
    assert transcript(seed=4, count=40)[1] != digest


def test_transcript_moves_with_a_library_reader(monkeypatch):
    # enumerate_cycles is read by no verb: only the library readers see it
    import maxplus

    digest = transcript(seed=4, count=40)[1]
    enumerate_cycles = maxplus.enumerate_cycles
    monkeypatch.setattr(maxplus, "enumerate_cycles", lambda a, max_length=None: enumerate_cycles(a))
    assert transcript(seed=4, count=40)[1] != digest
