"""The per-test deadline of conftest.py fails the test that runs past it
and lets the session go on."""

from pathlib import Path

import maxplus

CONFTEST = Path(__file__).with_name("conftest.py")


def test_an_expired_deadline_fails_its_test_alone(pytester):
    # conftest.py's own fixture and hook, with a 1 s deadline, in a fresh
    # pytest process: the test that loops past it fails with the
    # deadline's message, and the next test still runs and passes.  The
    # loop runs max-plus products, where the alarm leaves a traceback
    # entry with no line number: reported with its frames, that ended the
    # session with an INTERNALERROR before the second test ran
    pytester.makeconftest(
        f"""
        import importlib.util
        import sys

        sys.path.insert(0, {str(Path(maxplus.__file__).parents[1])!r})
        spec = importlib.util.spec_from_file_location("deadline_conftest", {str(CONFTEST)!r})
        tested = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tested)
        tested.PER_TEST_SECONDS = 1
        _per_test_deadline, pytest_runtest_call = tested._per_test_deadline, tested.pytest_runtest_call
        """
    )
    pytester.makepyfile(
        """
        from maxplus.matrix import _finite_entries, _int_mul


        def test_runs_past_its_deadline():
            rows = [[i + j for j in range(30)] for i in range(30)]
            finite = _finite_entries(rows)
            while True:
                rows = [[x - 1 for x in row] for row in _int_mul(rows, finite)]


        def test_after_it():
            assert True
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*test_runs_past_its_deadline*", "*no answer within 1 s*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
