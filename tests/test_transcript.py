"""The A/B transcript tool (tests/transcript.py) is repeatable and sees a
one-off change in T1, and a change that only a library reader sees."""

from collections import Counter

from maxplus import csr
from transcript import transcript


def test_transcript_repeats_and_moves_with_T1(monkeypatch):
    codes, digest = transcript(seed=4, count=40)
    assert transcript(seed=4, count=40) == (codes, digest)
    assert sum(codes.values()) >= 40 * 14 and set(codes) <= {0, 1, 2}

    sweep, runs = csr._sweep, Counter()

    def t1_off_by_one(*args, **kwargs):
        runs["called"] += 1
        t, t1, rows, cols = sweep(*args, **kwargs)
        runs["returned"] += 1
        return t, t1 + 1, rows, cols

    monkeypatch.setattr(csr, "_sweep", t1_off_by_one)
    assert transcript(seed=4, count=40)[1] != digest
    # the transcript records an exception as an output, so a wrapper that
    # raised would move the digest too: every call must have returned
    assert runs["called"] > 0 and runs["returned"] == runs["called"], runs


def test_transcript_moves_with_a_library_reader(monkeypatch):
    # enumerate_cycles is read by no verb: only the library readers see it
    import maxplus

    digest = transcript(seed=4, count=40)[1]
    enumerate_cycles = maxplus.enumerate_cycles
    monkeypatch.setattr(maxplus, "enumerate_cycles", lambda a, max_length=None: enumerate_cycles(a))
    assert transcript(seed=4, count=40)[1] != digest
