import argparse
import cProfile
import json
import pstats
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from maxplus import (
    MaxPlusMatrix,
    apply_numbering,
    dm_skeleton,
    generate_dm,
    generate_wielandt,
    parse_matrix,
    render_matrix,
    weak_threshold_T1,
    wielandt_skeleton,
)
from maxplus import cli, extremal, spectral
from maxplus.cli import main


def write_matrix(tmp_path, matrix, name="a.txt"):
    path = tmp_path / name
    path.write_text(render_matrix(matrix))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_wielandt_skeleton(tmp_path, capsys):
    path = write_matrix(tmp_path, wielandt_skeleton(5))
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["T1"] == 17 and report["attains_wiel"] is True
    assert report["lambda"] == "0" and report["g"] == 4

    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert f"{'T1':>18}: 17" in out.splitlines()


def test_powers_and_csr_output_matrix_text(tmp_path, capsys):
    path = write_matrix(tmp_path, wielandt_skeleton(3))
    code, out, _ = run(capsys, "powers", path, "--t", "3")
    assert code == 0
    assert parse_matrix(out).n == 3

    code, out, _ = run(capsys, "csr", path, "--t", "2")
    assert code == 0
    assert parse_matrix(out).n == 3


def test_powers_rejects_t_zero(tmp_path, capsys):
    path = write_matrix(tmp_path, wielandt_skeleton(3))
    code, _, err = run(capsys, "powers", path, "--t", "0")
    assert code == 1
    assert "t must be >= 1" in err
    assert err.count("\n") == 1  # single-line diagnostic


def test_parse_failure_is_single_line_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("token", ["1e", "3/0", "1/2/3", "\u0663/0"])
def test_a_bad_token_is_exit_one_with_one_line_naming_it(tmp_path, capsys, token):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"2\n0 {token}\n1/2 0\n")
    assert run(capsys, "analyze", str(bad)) == (1, "", f"error: bad scalar token {token!r}\n")


@pytest.mark.parametrize("token", ["1e5000", "1e30000000", "-1E-30000000"])
def test_a_token_past_the_exponent_bound_is_refused_at_once(tmp_path, capsys, token):
    # Fraction(token) spent 48 s and 144 MB on 1e30000000, and 1e5000 got
    # through to render, which failed with Python's own digit-limit line
    bad = tmp_path / "bad.txt"
    bad.write_text(f"2\n{token} 0\n0 -inf\n")
    start = time.perf_counter()
    assert run(capsys, "analyze", str(bad)) == (1, "", f"error: bad scalar token {token!r}\n")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("token", ["1e4300", "-1E-4300", "0.5e-4300", "1" + "0" * 4300, "1/" + "1" * 4301])
def test_a_value_too_long_to_print_is_refused_at_once(tmp_path, capsys, token):
    # 1e4300 and -1E-4300 passed the exponent bound with 4301 digits, and
    # analyze exited 1 with Python's own digit-limit line when it printed
    # lambda: the numerator and denominator of every value are bounded
    bad = tmp_path / "bad.txt"
    bad.write_text(f"2\n{token} 0\n0 -inf\n")
    start = time.perf_counter()
    assert run(capsys, "analyze", str(bad)) == (1, "", f"error: bad scalar token {token!r}\n")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "verb", [("analyze",), ("analyze", "--json"), ("powers", "--t", "2"), ("oracle", "--i", "0", "--j", "0", "--t", "2")]
)
def test_a_computed_value_too_long_to_print_is_refused_with_one_line(tmp_path, capsys, verb):
    # each entry of the two-cycle has 2201 digits and parses, but lambda =
    # (p + q)/(2pq) and the diagonal of A^2, (p + q)/(pq), have 4401-digit
    # denominators: analyze, analyze --json, powers and oracle exited 1
    # with Python's own digit-limit line, and oracle after printing part
    # of its answer; every value is printed through matrix._text now
    p, q = 10**2200 + 1, 10**2200 + 3
    path = tmp_path / "a.txt"
    path.write_text(f"2\n-inf 1/{p}\n1/{q} -inf\n")
    start = time.perf_counter()
    line = "error: value too long to print: more than 4300 digits in its numerator or denominator\n"
    assert run(capsys, verb[0], str(path), *verb[1:]) == (1, "", line)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("token", ["1e4299", "-1E-4299", "5e-4300", "9" * 4300, "-1/" + "9" * 4300])
def test_a_value_at_the_digit_bound_parses_and_prints_back(tmp_path, capsys, token):
    # at most 4300 digits in the numerator and in the denominator: the
    # value parses, and powers --t 1 prints it as str(Fraction) does
    path = tmp_path / "a.txt"
    path.write_text(f"2\n{token} 0\n0 -inf\n")
    assert run(capsys, "powers", str(path), "--t", "1") == (0, f"2\n{Fraction(token)} 0\n0 -inf\n", "")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/m.txt")
    assert code == 1


@pytest.mark.parametrize("verb", ["analyze", "powers", "check-dm"])
@pytest.mark.parametrize("kind", ["directory", "undecodable"])
def test_an_unreadable_file_is_usage_error_with_read_texts_message(tmp_path, capsys, verb, kind):
    # a directory, and a file whose bytes no text encoding of the locale reads
    # as a matrix: one error line, Path.read_text()'s own message, no output
    path = tmp_path / "m"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"2\n0 \xff\xfe\n\x81 0\n")
    with pytest.raises((OSError, ValueError)) as expected:
        parse_matrix(path.read_text())
    code, out, err = run(capsys, verb, str(path), *(["--t", "2"] if verb == "powers" else []))
    assert (code, out, err) == (1, "", f"error: {expected.value}\n")


def test_generate_check_dm_pipeline(tmp_path, capsys):
    out_path = str(tmp_path / "dm.txt")
    code, out, _ = run(
        capsys, "generate", "dm", "--n", "5", "--g", "3", "--seed", "2", "--out", out_path
    )
    assert code == 0
    provenance = json.loads((tmp_path / "dm.txt.json").read_text())
    assert provenance["verified_T1"] == 14
    assert provenance["numbering"] == [0, 1, 2, 3, 4]

    code, out, _ = run(capsys, "check-dm", out_path, "--json")
    assert code == 0
    verdict = json.loads(out)["dm_attainment"]
    assert verdict["holds"] is True
    assert all(c["passed"] for c in verdict["conditions"].values())


def test_generate_without_out_streams_matrix_then_provenance(capsys):
    code, out, _ = run(capsys, "generate", "wielandt", "--n", "4", "--seed", "1", "--case", "n")
    assert code == 0
    a = parse_matrix(out)  # trailing provenance line is ignored by the parser
    assert a.n == 4
    assert json.loads(out.strip().splitlines()[-1])["verified_T1"] == 10


@pytest.mark.parametrize(
    "argv",
    [
        ("dm", "--n", "5", "--g", "2", "--seed", "4"),
        ("dm", "--n", "7", "--g", "3", "--seed", "1"),
        ("wielandt", "--n", "5", "--seed", "2", "--case", "n-1"),
        ("wielandt", "--n", "6", "--seed", "0", "--case", "n"),
    ],
)
def test_generate_verified_T1_matches_a_fresh_scan(capsys, argv):
    code, out, _ = run(capsys, "generate", *argv)
    assert code == 0
    provenance = json.loads(out.strip().splitlines()[-1])
    assert provenance["verified_T1"] == weak_threshold_T1(parse_matrix(out)).t1


def test_generate_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "generate", "dm", "--n", "5", "--g", "2", "--seed", "9")
    code2, out2, _ = run(capsys, "generate", "dm", "--n", "5", "--g", "2", "--seed", "9")
    assert code1 == code2 == 0 and out1 == out2


def test_generate_dm_requires_g(capsys):
    code, _, err = run(capsys, "generate", "dm", "--n", "5")
    assert code == 1 and "needs --g" in err


def test_generate_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "generate", "dm", "--n", "4", "--g", "2")
    assert code == 1 and "coprime" in err


def test_check_verbs_exit_two_on_negative_verdict(tmp_path, capsys):
    # a plain 2-cycle attains nothing
    path = tmp_path / "plain.txt"
    path.write_text("2\n-inf 0\n0 -inf\n")
    code, out, _ = run(capsys, "check-wiel", str(path))
    assert code == 2
    assert "does not hold" in out

    code, out, _ = run(capsys, "check-crit-rc", str(path), "--json")
    assert code == 2
    verdict = json.loads(out)
    assert verdict == {"crit_rc_dm": False, "crit_rc_wielandt": False}


@pytest.mark.parametrize("case", ["n-1", "n"])
def test_check_crit_rc_has_no_size_limit(tmp_path, capsys, case):
    path = write_matrix(tmp_path, generate_wielandt(12, seed=0, case=case))
    code, out, _ = run(capsys, "check-crit-rc", path)
    assert code == 0
    assert "crit_rc_wielandt: holds" in out.splitlines()


def crit_rc_cases():
    """(matrix, exit code of check-crit-rc) pairs."""
    return [
        (generate_wielandt(6, seed=1, case="n-1"), 0),
        (generate_wielandt(6, seed=1, case="n"), 0),
        (generate_dm(5, 3, seed=0), 0),
        (dm_skeleton(5, 2), 0),
        (parse_matrix("3\n-inf 1 -inf\n-inf -inf 2\n3 -inf -1\n"), 2),
        (parse_matrix("1\n0\n"), 1),
        (parse_matrix("2\n-inf 1\n-inf -inf\n"), 1),
    ]


def test_check_crit_rc_computes_the_spectrum_once(tmp_path, capsys, monkeypatch):
    # both verdicts read one critical graph of the input: the second reads
    # the spectrum the first stored on it; the skeleton layers that the
    # Wielandt verdict tries have spectra of their own
    inputs = []
    compute = spectral._spectrum

    def recorded(a):
        inputs.append(a)
        return compute(a)

    monkeypatch.setattr(spectral, "_spectrum", recorded)
    for a, expected in crit_rc_cases():
        path = write_matrix(tmp_path, a)
        for extra in ((), ("--json",)):
            inputs.clear()
            code, _, _ = run(capsys, "check-crit-rc", path, *extra)
            assert code == expected
            assert sum(b == a for b in inputs) == 1


def test_check_crit_rc_calls_each_public_verdict_once(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("verify_crit_rc_dm", "verify_crit_rc_wielandt"):
        def recorded(a, verify=getattr(cli, name), name=name):
            calls.append(name)
            return verify(a)

        monkeypatch.setattr(cli, name, recorded)
    for a, expected in crit_rc_cases():
        path = write_matrix(tmp_path, a)
        for extra in ((), ("--json",)):
            calls.clear()
            code, out, err = run(capsys, "check-crit-rc", path, *extra)
            assert code == expected
            # acyclic input fails in the DM verdict, so the Wielandt one is
            # not called; n = 1 fails in the Wielandt one; neither prints
            both = ["verify_crit_rc_dm", "verify_crit_rc_wielandt"]
            assert calls == (both[:1] if "acyclic" in err else both)
            assert (out == "") == (code == 1)


def test_the_verbs_build_no_fraction_but_each_spectrums_lambda(tmp_path, capsys):
    # a matrix holds int rows over one least denominator from parse to
    # render: analyze, each check verb and generate build no Fraction but
    # the public lambda of each spectrum they compute, one each, by Karp
    # (spectral._spectrum) or, for generate's skeleton, by its Hamiltonian
    # cycle (spectral._hamiltonian_spectrum), with no Karp table.
    # cProfile counts the calls of Fraction.__new__ and of both
    rng = random.Random(37)
    mixed = MaxPlusMatrix(
        [[Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 7))) if rng.random() < 0.6 else None for _ in range(7)] for _ in range(7)]
    )
    files = {
        name: write_matrix(tmp_path, a, f"{name}.txt")
        for name, a in (
            ("mixed", mixed),
            ("dm", apply_numbering(generate_dm(7, 3, 1), (3, 0, 6, 1, 5, 2, 4))),
            ("wielandt", generate_wielandt(6, 2, case="n")),
        )
    }
    runs = [("analyze", files[name]) for name in files] + [
        ("check-dm", files["dm"]), ("check-dm", files["mixed"]), ("check-wiel", files["wielandt"]),
        ("check-crit-rc", files["wielandt"]), ("check-crit-rc", files["dm"]),
        ("generate", "dm", "--n", "7", "--g", "3"), ("generate", "wielandt", "--n", "6", "--case", "n"),
        ("generate", "wielandt", "--n", "5", "--case", "n-1"),
    ]
    spectra = 0
    for argv in runs:
        profile = cProfile.Profile()
        code = profile.runcall(main, list(argv))
        out, err = capsys.readouterr()
        assert code in (0, 2) and err == "", (argv, err)
        calls = {(Path(file).name, name): count for (file, _, name), (count, *_) in pstats.Stats(profile).stats.items()}
        built = calls.get(("fractions.py", "__new__"), 0)
        computed, certified = (calls.get(("spectral.py", name), 0) for name in ("_spectrum", "_hamiltonian_spectrum"))
        assert built == computed + certified >= 1, (argv, built, computed, certified)
        if argv[0] == "generate":  # its skeleton's spectrum is certified, not computed
            assert (computed, certified) == (0, 1), argv
        else:
            assert certified == 0, argv
        spectra += computed + certified
    assert spectra > len(runs)  # check-dm on the mixed input computes its carved skeleton's too


def test_check_dm_with_explicit_numbering(tmp_path, capsys):
    from maxplus import apply_numbering, generate_dm

    a = generate_dm(5, 2, seed=3)
    scrambled = apply_numbering(a, (2, 0, 4, 1, 3))
    path = write_matrix(tmp_path, scrambled)
    # the numbering undoing the scramble: position p holds scrambled node inv[p]
    inv = [0] * 5
    for pos, node in enumerate((2, 0, 4, 1, 3)):
        inv[node] = pos
    numbering = ",".join(str(inv[orig]) for orig in range(5))
    code, out, _ = run(capsys, "check-dm", path, "--numbering", numbering, "--json")
    assert code == 0 and json.loads(out)["dm_attainment"]["holds"] is True

    code, _, err = run(capsys, "check-dm", path, "--numbering", "0,0,1,2,3")
    assert code == 1 and "permutation" in err


def test_oracle_verb(tmp_path, capsys):
    from maxplus import generate_dm

    path = write_matrix(tmp_path, generate_dm(5, 2, seed=0))
    code, out, _ = run(capsys, "oracle", path, "--i", "2", "--j", "4", "--t", "10", "--json")
    assert code == 0
    walk = json.loads(out)["walk"]
    assert walk["interesting"] is True
    assert walk["nodes"] == [2, 3, 4] + [0, 1, 2, 3, 4] * 2

    code, out, _ = run(capsys, "oracle", path, "--i", "2", "--j", "4", "--t", "10")
    assert code == 0 and "interesting: True" in out


def test_readme_example_session(tmp_path, capsys):
    path = str(tmp_path / "ex.txt")
    code, _, _ = run(capsys, "generate", "dm", "--n", "5", "--g", "3", "--seed", "0", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "analyze", path, "--json")
    report = json.loads(out)
    assert code == 0 and report["T"] == report["T1"] == 14
    assert report["attains_dm"] is True and report["attains_wiel"] is False
    code, out, _ = run(capsys, "check-dm", path)
    assert code == 0
    assert out.splitlines()[:2] == ["dm_attainment: holds", "  numbering: 0 1 2 3 4"]
    code, out, _ = run(capsys, "oracle", path, "--i", "3", "--j", "4", "--t", "13")
    assert code == 0
    assert out.splitlines() == [
        "walk: " + " ".join(map(str, [3, 4] + [0, 1, 2, 3, 4] * 3)),
        "length: 16",
        "weight: 0",
        "interesting: True",
    ]


def test_oracle_size_guard(tmp_path, capsys):
    from maxplus import dm_skeleton

    path = write_matrix(tmp_path, dm_skeleton(9, 2))
    code, _, err = run(capsys, "oracle", path, "--i", "0", "--j", "1", "--t", "3")
    assert code == 1 and "too large" in err


def test_reports_are_deterministic_bytes(tmp_path, capsys):
    path = write_matrix(tmp_path, wielandt_skeleton(4))
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_matrix_text_roundtrip_via_cli(tmp_path, capsys):
    text = "3\n0 -inf 1/2\n-inf -3 -inf\n7 0 -inf\n"
    path = tmp_path / "m.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "powers", str(path), "--t", "1")
    assert code == 0 and out == text


@pytest.mark.parametrize("family", ["dm", "wielandt"])
@pytest.mark.parametrize("failing", ["verdict", "T1"])
def test_failed_generator_post_verification_is_exit_three(monkeypatch, capsys, family, failing):
    # a generator draws one candidate; failing either of its checks, the
    # public verdict or the T1 check, is a broken invariant
    if failing == "T1":
        monkeypatch.setattr(extremal, "_t1_at_ceiling", lambda a, bound: False)
    elif family == "dm":
        monkeypatch.setattr(extremal, "verify_dm", lambda a, numbering: extremal.DmVerdict(holds=False, numbering=None))
    else:
        failed = extremal.WielandtVerdict(holds=False, numbering=None, case=None)
        monkeypatch.setattr(extremal, "verify_wielandt", lambda a, numbering: failed)
    code, out, err = run(capsys, "generate", family, "--n", "5", *(["--g", "2"] if family == "dm" else []))
    assert code == 3 and out == ""
    assert err.startswith("internal assertion failed")
    assert err.count("\n") == 1


def test_running_out_of_memory_is_exit_one(monkeypatch, capsys):
    # the generator raises as an allocation would; no memory is asked for
    def exhausted(n, seed, case):
        raise MemoryError

    monkeypatch.setattr(cli, "generate_wielandt", exhausted)
    code, out, err = run(capsys, "generate", "wielandt", "--n", "20000")
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


def test_transient_far_past_the_ceiling_is_reported(tmp_path, capsys):
    # the gap below lambda = 0 is 1/1000, so T = 20/gap lies far past the
    # ceiling DM(1, 3) = 4, where the search for T gallops
    path = tmp_path / "gap.txt"
    path.write_text("3\n0 -5 -inf\n-5 -1/1000 -5\n-inf -5 -1/1000\n")
    code, out, err = run(capsys, "analyze", str(path), "--json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert (report["T"], report["T1"], report["dm"]) == (20000, 2, 4)


@pytest.mark.parametrize(
    "argv",
    [
        ("check-dm",),
        ("generate", "dm", "--n", "5", "--g", "x"),
        ("analyze", "m.txt", "--bogus"),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: maxplus") and "error:" in err


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: maxplus") and "check-wiel" in out


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    path = write_matrix(tmp_path, wielandt_skeleton(4))
    run(capsys, "analyze", path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (
        ("analyze", path, "--json"),
        ("check-wiel", path),
        ("generate", "dm", "--n", "5", "--g", "2"),
        ("check-dm",),
        ("--help",),
    ):
        run(capsys, *argv)
    assert built == []


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys):
    wiel = write_matrix(tmp_path, generate_wielandt(5, seed=0), "w.txt")
    # under the identity numbering this instance fails; the search finds one that holds
    dm = write_matrix(tmp_path, apply_numbering(generate_dm(3, 2, seed=0), (1, 2, 0)), "dm.txt")
    out = str(tmp_path / "g.txt")
    sequences = [
        [("check-wiel", wiel, "--json"), ("check-wiel", wiel)],
        [("check-dm", dm, "--numbering", "0,1,2"), ("check-dm", dm)],
        [("generate", "dm", "--n", "5", "--g", "x"), ("check-wiel", wiel)],
        [("generate", "dm", "--n", "5", "--g", "2", "--out", out), ("generate", "dm", "--n", "5", "--g", "2")],
    ]
    for calls in sequences:
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [run(capsys, *argv) for argv in calls] == fresh

    _, plain, _ = run(capsys, "check-wiel", wiel)
    assert plain.startswith("wielandt_attainment: holds\n")
    assert [run(capsys, *argv)[0] for argv in sequences[1]] == [2, 0]
    assert [run(capsys, *argv)[0] for argv in sequences[2]] == [1, 0]
    code, text, _ = run(capsys, *sequences[3][1])
    assert code == 0 and parse_matrix(text).n == 5
    assert json.loads(text.splitlines()[-1])["verified_T1"] == 11
